// Pod-scale parallel-simulation sweep: the pod-grammar in-cast (mixed
// DCQCN/Swift/Cubic initiators striping reads over tail-pod targets across
// oversubscribed rack and spine uplinks) on a 512-host topology, executed
// by the sharded lane engine at increasing lane (thread) counts.
//
// Per (incast-degree, lane-count) point, one timed section reports
// events/sec — the parallel-simulation payoff metric. The simulated event
// counts are lane-count invariant by construction (the bench asserts the
// full result snapshot, not just the count), so `srcctl benchdiff` against
// bench/baselines/BENCH_pod_scale.json is a pure host-throughput gate.
//
// Per point the bench also records the lanes=4 / lanes=1 events/sec ratio
// (`notes` in BENCH_pod_scale.json) and fails when 4 lanes run slower than
// 1 lane on a host with at least 4 cores; with fewer cores it prints a
// skip notice instead. The committed baseline, captured on an otherwise
// idle shared 4-vCPU Xeon VM (g++ 12.2, Release), reads 6.5 / 9.3 / 12.4
// Mev/s at deg=8 and 6.0 / 9.5 / 13.0 Mev/s at deg=16 on 1 / 2 / 4 lanes
// (ratios 1.90 and 2.16; three captures ranged 1.55-1.90 and 2.14-2.17).
// The workload caps the ratio: only 5 of the 21 shards carry events, and
// the busiest executes about 30% of each window's events.
//
// `--reduced` shrinks the grammar to 32 hosts and divides the workload for
// quick local smoke runs (too small to gate scaling); CI runs the full
// sweep.
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness.hpp"
#include "common/table.hpp"
#include "core/podscale.hpp"
#include "scenario/build.hpp"
#include "scenario/presets.hpp"

using namespace src;

namespace {

struct Point {
  const char* name;
  std::size_t initiators;
  std::size_t targets;
  std::size_t stripe_width;
};

/// The pod-incast preset calibration on the sweep's grammar: full mode is
/// 4 pods x 4 racks x 32 hosts (512 hosts, 21 shards under the rack
/// partition), reduced mode 2 x 2 x 8 (32 hosts, 7 shards).
scenario::ScenarioSpec sweep_spec(const Point& point, std::size_t lanes,
                                  bool reduced) {
  scenario::ScenarioSpec spec = scenario::pod_incast_spec(
      point.initiators, point.targets, point.stripe_width);
  if (reduced) {
    spec.topology.pod.hosts_per_rack = 8;  // 32 hosts: fits the deg=16 point
    spec.max_time = 60 * common::kMillisecond;
    for (scenario::WorkloadSpec& workload : spec.workloads) {
      workload.micro.read.count /= 6;
      workload.micro.write.count /= 6;
    }
  } else {
    spec.topology.pod.pods = 4;
    spec.topology.pod.racks_per_pod = 4;
    spec.topology.pod.hosts_per_rack = 32;
  }
  spec.lanes = lanes;
  return spec;
}

}  // namespace

int main(int argc, char** argv) {
  const bool reduced = argc > 1 && std::strcmp(argv[1], "--reduced") == 0;

  const std::vector<Point> points = {
      {"deg=8", 8, 8, 4},
      {"deg=16", 16, 8, 4},
  };
  const std::vector<std::size_t> lane_counts = {1, 2, 4};

  std::printf("pod-scale in-cast sweep — sharded lane engine%s\n\n",
              reduced ? " (reduced)" : " (512-host grammar)");
  bench::Harness harness("pod_scale");
  common::TextTable table({"point", "lanes", "read Gbps", "Jain", "events",
                           "cross-shard", "Mev/s"});

  int divergences = 0;
  for (const Point& point : points) {
    std::string baseline_snapshot;
    for (const std::size_t lanes : lane_counts) {
      const scenario::ScenarioSpec spec = sweep_spec(point, lanes, reduced);
      core::PodExperimentResult result;
      {
        auto scope = harness.scope(std::string(point.name) +
                                   "/lanes=" + std::to_string(lanes));
        result = scenario::run_pod(spec);
        scope.events(result.events_executed);
        scope.items(result.reads_completed + result.writes_completed);
      }
      const bench::Harness::Record& record = harness.records().back();
      table.add_row({point.name, std::to_string(lanes),
                     common::fmt(result.read_rate().as_gbps()),
                     common::fmt(result.read_fairness_index(), 4),
                     std::to_string(result.events_executed),
                     std::to_string(result.cross_shard_messages),
                     common::fmt(record.events_per_sec() / 1e6)});
      // Lane-count invariance holds for the whole result, not just the
      // event count; a divergence here is an engine bug, not noise.
      const std::string snapshot = result.snapshot();
      if (baseline_snapshot.empty()) {
        baseline_snapshot = snapshot;
      } else if (snapshot != baseline_snapshot) {
        std::fprintf(stderr,
                     "%s: result DIVERGED between lane counts (lanes=%zu)\n",
                     point.name, lanes);
        ++divergences;
      }
    }
  }
  table.print(std::cout);

  // Scaling gate: with the cores to run them, 4 lanes must beat 1 lane.
  const unsigned cores = std::thread::hardware_concurrency();
  const bool gated = !reduced && cores >= 4;
  int slow = 0;
  std::printf("\n");
  for (const Point& point : points) {
    const std::string name(point.name);
    const double one = harness.find(name + "/lanes=1")->events_per_sec();
    const double four = harness.find(name + "/lanes=4")->events_per_sec();
    const double ratio = one > 0.0 ? four / one : 0.0;
    harness.note(name + "/scaling_lanes4_over_lanes1", ratio);
    std::printf("%s: lanes=4 / lanes=1 events/s = %.2f\n", point.name, ratio);
    if (gated && ratio < 1.0) {
      std::fprintf(stderr, "%s: 4 lanes ran SLOWER than 1 lane (%.2fx)\n",
                   point.name, ratio);
      ++slow;
    }
  }
  if (!gated) {
    std::printf("scaling gate skipped: %s\n",
                reduced ? "reduced grammar"
                        : ("only " + std::to_string(cores) +
                           " core(s), need 4").c_str());
  }
  return divergences == 0 && slow == 0 ? 0 : 1;
}
