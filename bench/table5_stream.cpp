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

/// Best-of-reps bandwidth of a parallel copy over `n` elements of T —
/// 2·n·sizeof(T) bytes per pass (write the stream, read it back), the
/// Cˆ term of Eq. 4.
template <typename T>
double lane_copy_gbs(std::size_t n, int reps) {
  AlignedBuffer<T> src(n), dst(n);
#pragma omp parallel for schedule(static)
  for (std::ptrdiff_t i = 0; i < static_cast<std::ptrdiff_t>(n); ++i) {
    src[static_cast<std::size_t>(i)] = T{};
  }
  double best = 0;
  for (int r = 0; r < reps + 1; ++r) {  // first pass is warmup
    Timer t;
#pragma omp parallel for schedule(static)
    for (std::ptrdiff_t i = 0; i < static_cast<std::ptrdiff_t>(n); ++i) {
      dst[static_cast<std::size_t>(i)] = src[static_cast<std::size_t>(i)];
    }
    const double s = t.elapsed_s();
    const double gbs =
        s > 0 ? 2.0 * static_cast<double>(n * sizeof(T)) / s / 1e9 : 0.0;
    if (r > 0 && gbs > best) best = gbs;
  }
  return best;
}

struct TupleStreamPoint {
  pb::TupleFormat format;
  double gbs = 0;
  double mtuples_s = 0;
};

/// One point per format, moving the same tuple COUNT through each layout
/// (SoA formats copy their lanes separately, as the pipeline does).
std::vector<TupleStreamPoint> run_tuple_streams(std::size_t tuples, int reps) {
  std::vector<TupleStreamPoint> out;
  auto add = [&](pb::TupleFormat f, double gbs) {
    TupleStreamPoint p;
    p.format = f;
    p.gbs = gbs;
    const double bpt = static_cast<double>(pb::bytes_per_tuple(f));
    p.mtuples_s = gbs * 1e9 / (2.0 * bpt) / 1e6;
    out.push_back(p);
  };
  add(pb::TupleFormat::kWide, lane_copy_gbs<pb::Tuple>(tuples, reps));
  {
    // narrow: 4 B key lane + 8 B value lane, timed as one pass
    AlignedBuffer<pb::narrow_key_t> ks(tuples), kd(tuples);
    AlignedBuffer<value_t> vs(tuples), vd(tuples);
#pragma omp parallel for schedule(static)
    for (std::ptrdiff_t i = 0; i < static_cast<std::ptrdiff_t>(tuples); ++i) {
      ks[static_cast<std::size_t>(i)] = 0;
      vs[static_cast<std::size_t>(i)] = 0;
    }
    double best = 0;
    for (int r = 0; r < reps + 1; ++r) {
      Timer t;
#pragma omp parallel for schedule(static)
      for (std::ptrdiff_t i = 0; i < static_cast<std::ptrdiff_t>(tuples);
           ++i) {
        kd[static_cast<std::size_t>(i)] = ks[static_cast<std::size_t>(i)];
        vd[static_cast<std::size_t>(i)] = vs[static_cast<std::size_t>(i)];
      }
      const double s = t.elapsed_s();
      const double gbs =
          s > 0 ? 2.0 *
                      static_cast<double>(tuples * pb::kBytesPerTupleNarrow) /
                      s / 1e9
                : 0.0;
      if (r > 0 && gbs > best) best = gbs;
    }
    add(pb::TupleFormat::kNarrow, best);
  }
  add(pb::TupleFormat::kKeyOnly, lane_copy_gbs<pb::wide_key_t>(tuples, reps));
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
      args.get_int("tuples_mb", 64)) * 1024 * 1024 / sizeof(pb::Tuple);
  bench::Table ts({"format", "B/t", "copy(GB/s)", "Mtuples/s"});
  for (const TupleStreamPoint& p : run_tuple_streams(tuples, ntimes)) {
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
