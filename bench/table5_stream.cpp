// Table V — STREAM benchmark of the evaluation platform: sustainable
// Copy/Scale/Add/Triad bandwidth on one thread, one "socket" (all cores
// here), and the full machine.  These β values calibrate every Roofline
// prediction in the other benches.
//
// Extended with the tuple-stream section: the same write-then-read pattern
// Eq. 4 charges the Cˆ stream, run over each TupleFormat's physical
// layout.  GB/s is flat across formats (it is the same machine), which is
// the point — at equal bandwidth the 8 B key-only stream moves twice
// the tuples per second of the 16 B wide stream.
#include <cstring>

#include "bench_common.hpp"
#include "common/aligned_buffer.hpp"
#include "common/stream.hpp"
#include "pb/tuple.hpp"

namespace {

using namespace pbs;

/// Best-of-reps bandwidth of a parallel copy of `n` format-F tuples — the
/// key lane and, for valued formats, the value lane, timed as one pass, as
/// the pipeline moves them.  2·n·bytes_per_tuple(F) bytes per pass (write
/// the stream, read it back): the Cˆ term of Eq. 4.
template <pb::TupleFormat F>
double stream_copy_gbs(std::size_t n, int reps) {
  using Key = typename pb::StreamSpan<F>::Key;
  constexpr bool kValues = pb::has_values(F);
  AlignedBuffer<Key> ks(n), kd(n);
  AlignedBuffer<value_t> vs(kValues ? n : 0), vd(kValues ? n : 0);
#pragma omp parallel for schedule(static)
  for (std::ptrdiff_t i = 0; i < static_cast<std::ptrdiff_t>(n); ++i) {
    ks[static_cast<std::size_t>(i)] = 0;
    if constexpr (kValues) vs[static_cast<std::size_t>(i)] = 0;
  }
  double best = 0;
  for (int r = 0; r < reps + 1; ++r) {  // first pass is warmup
    Timer t;
#pragma omp parallel for schedule(static)
    for (std::ptrdiff_t i = 0; i < static_cast<std::ptrdiff_t>(n); ++i) {
      const auto u = static_cast<std::size_t>(i);
      kd[u] = ks[u];
      if constexpr (kValues) vd[u] = vs[u];
    }
    const double s = t.elapsed_s();
    const double gbs =
        s > 0 ? 2.0 * static_cast<double>(n * pb::bytes_per_tuple(F)) / s / 1e9
              : 0.0;
    if (r > 0 && gbs > best) best = gbs;
  }
  return best;
}

struct StreamSpanPoint {
  pb::TupleFormat format;
  double gbs = 0;
  double mtuples_s = 0;
};

/// One point per format, moving the same tuple COUNT through each layout.
std::vector<StreamSpanPoint> run_tuple_streams(std::size_t tuples, int reps) {
  std::vector<StreamSpanPoint> out;
  auto add = [&](pb::TupleFormat f, double gbs) {
    StreamSpanPoint p;
    p.format = f;
    p.gbs = gbs;
    const double bpt = static_cast<double>(pb::bytes_per_tuple(f));
    p.mtuples_s = gbs * 1e9 / (2.0 * bpt) / 1e6;
    out.push_back(p);
  };
  add(pb::TupleFormat::kWide,
      stream_copy_gbs<pb::TupleFormat::kWide>(tuples, reps));
  add(pb::TupleFormat::kNarrow,
      stream_copy_gbs<pb::TupleFormat::kNarrow>(tuples, reps));
  add(pb::TupleFormat::kKeyOnly,
      stream_copy_gbs<pb::TupleFormat::kKeyOnly>(tuples, reps));
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pbs;
  const bench::Args args(argc, argv);
  const auto elements =
      static_cast<std::size_t>(args.get_int("mb", 256)) * 1024 * 1024 /
      (3 * sizeof(double));
  const int ntimes = args.get_int("reps", 5);

  bench::print_header(
      "Table V — STREAM bandwidth (GB/s)",
      "paper: Skylake single socket ~47-57, dual ~87-108; this host's "
      "values below are the beta used everywhere else");

  bench::JsonSink json(args);

  bench::Table t({"threads", "Copy", "Scale", "Add", "Triad"});
  const int max = max_threads();
  for (const int threads : {1, max}) {
    const StreamResult r = run_stream(elements, ntimes, threads);
    t.row(threads, r.copy_gbs, r.scale_gbs, r.add_gbs, r.triad_gbs);
    if (json.enabled()) {
      json.add(bench::Json()
                   .field("bench", std::string("stream"))
                   .field("threads", std::int64_t{threads})
                   .field("copy_gbs", r.copy_gbs)
                   .field("scale_gbs", r.scale_gbs)
                   .field("add_gbs", r.add_gbs)
                   .field("triad_gbs", r.triad_gbs));
    }
    if (max == 1) break;
  }
  t.print(std::cout);

  // Tuple-stream rates: what the Cˆ write+read term sustains per format.
  const auto tuples = static_cast<std::size_t>(
      args.get_int("tuples_mb", 64)) * 1024 * 1024 /
      pb::bytes_per_tuple(pb::TupleFormat::kWide);
  bench::Table ts({"format", "B/t", "copy(GB/s)", "Mtuples/s"});
  for (const StreamSpanPoint& p : run_tuple_streams(tuples, ntimes)) {
    const auto bpt = static_cast<double>(pb::bytes_per_tuple(p.format));
    ts.row(pb::to_string(p.format), bpt, p.gbs, p.mtuples_s);
    if (json.enabled()) {
      json.add(bench::Json()
                   .field("bench", std::string("tuple_stream"))
                   .field("format", std::string(pb::to_string(p.format)))
                   .field("bytes_per_tuple", bpt)
                   .field("copy_gbs", p.gbs)
                   .field("mtuples_s", p.mtuples_s));
    }
  }
  std::cout << "\n## Tuple-stream copy (write Cˆ, read it back) per format\n";
  ts.print(std::cout);

  std::cout << "\n# NOTE: the paper's dual-socket row needs a second NUMA "
               "domain; this host has one (substitution documented in "
               "DESIGN.md s3 / EXPERIMENTS.md).\n";
  return 0;
}
