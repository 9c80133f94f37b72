// Compare the paper's best practices head-to-head on one player across the
// 14 cellular profiles: baseline ExoPlayer-style player vs
//   + actual-bitrate-aware track selection (§4.2)
//   + improved per-segment Segment Replacement (§4.1.3)
//   + both.
//
//   ./abr_shootout [--jobs N]
#include <cstdio>
#include <cstring>
#include <vector>

#include "arg_parse.h"
#include "batch/sweep.h"
#include "common/error.h"
#include "common/stats.h"
#include "core/qoe.h"
#include "core/session.h"
#include "trace/cellular_profiles.h"

using namespace vodx;

namespace {

services::ServiceSpec base_spec() {
  services::ServiceSpec spec;
  spec.name = "player";
  spec.protocol = manifest::Protocol::kDash;
  spec.video_ladder = {250e3, 430e3, 750e3, 1.3e6, 2.2e6, 3.6e6, 5.2e6};
  spec.segment_duration = 4;
  spec.audio_segment_duration = 4;
  spec.separate_audio = true;
  spec.peak_to_average = 2.0;
  spec.player.max_connections = 2;
  spec.player.startup_buffer = 10;
  spec.player.startup_bitrate = 430e3;
  spec.player.pausing_threshold = 50;
  spec.player.resuming_threshold = 40;
  return spec;
}

struct Outcome {
  double median_bitrate_mbps;
  double median_low_fraction;  // displayed time at <= 480p
  double total_stall;
  double total_data_mb;
  double mean_qoe_score;
};

Outcome evaluate(const services::ServiceSpec& spec, int jobs) {
  batch::SweepConfig config;
  config.services = {spec};
  config.profiles = batch::all_profile_ids();
  config.jobs = jobs;
  batch::SweepResult sweep = batch::run_sweep(config);

  std::vector<double> bitrates;
  std::vector<double> low;
  Outcome out{0, 0, 0, 0, 0};
  for (const batch::CellResult& cell : sweep.cells) {
    if (!cell.ok) {
      std::fprintf(stderr, "cell %s failed: %s\n", cell.coordinates().c_str(),
                   cell.error.c_str());
      continue;
    }
    const core::SessionResult& r = cell.result;
    bitrates.push_back(r.qoe.average_declared_bitrate / 1e6);
    low.push_back(r.qoe.fraction_at_or_below(480));
    out.total_stall += r.qoe.total_stall;
    out.total_data_mb += static_cast<double>(r.qoe.total_bytes) / 1e6;
    out.mean_qoe_score +=
        core::qoe_score(r.qoe, r.session_end) / trace::kProfileCount;
  }
  out.median_bitrate_mbps = median(bitrates);
  out.median_low_fraction = median(low);
  return out;
}

int usage() {
  std::fprintf(stderr, "usage: abr_shootout [--jobs N]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  int jobs = 0;  // 0: one worker per hardware thread
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--jobs") != 0 || i + 1 >= argc) return usage();
    try {
      jobs = static_cast<int>(tools::parse_int_arg(argv[++i], "--jobs"));
    } catch (const Error& e) {
      std::fprintf(stderr, "abr_shootout: %s\n", e.what());
      return usage();
    }
  }

  struct Variant {
    const char* label;
    bool actual_aware;
    bool improved_sr;
  };
  const Variant variants[] = {
      {"baseline (declared-only, no SR)", false, false},
      {"+ actual-bitrate ABR (4.2)", true, false},
      {"+ improved SR (4.1.3)", false, true},
      {"+ both best practices", true, true},
  };

  std::printf("%-36s %14s %12s %10s %10s %10s\n", "variant",
              "median bitrate", "<=480p time", "stalls", "data", "QoE score");
  for (const Variant& v : variants) {
    services::ServiceSpec spec = base_spec();
    spec.player.use_actual_bitrate = v.actual_aware;
    if (v.improved_sr) {
      spec.player.sr = player::SrPolicy::kPerSegment;
      spec.player.sr_min_buffer = 10;
    }
    Outcome o = evaluate(spec, jobs);
    std::printf("%-36s %11.2f M %11.1f%% %8.1f s %7.0f MB %9.2f\n", v.label,
                o.median_bitrate_mbps, o.median_low_fraction * 100,
                o.total_stall, o.total_data_mb, o.mean_qoe_score);
  }
  std::printf(
      "\n(totals across the 14 cellular profiles; medians per profile)\n");
  return 0;
}
