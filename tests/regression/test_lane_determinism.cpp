// Lane-count invariance: the sharded lane engine must produce bit-identical
// results no matter how many worker threads execute the shard decomposition
// (DESIGN.md §14). Two existing star presets run at lanes 1 / 2 / 4 and the
// pod-grammar preset at lanes 1 / 2 / 3 / 4; all compare full snapshots as
// bytes — not tolerances — and the pod snapshot is additionally pinned
// against a committed golden so cross-version drift is caught even when all
// lane counts drift together.
#include <gtest/gtest.h>

#include <cstddef>
#include <fstream>
#include <sstream>
#include <string>

#include "scenario.hpp"

namespace src::regression {
namespace {

/// Run a star preset on the lane engine (lanes >= 1) and snapshot it.
/// Note lanes=0 (the classic single-kernel engine) is intentionally NOT in
/// the comparison set: the lane engine merges cross-shard deliveries at
/// window boundaries in (when, src, seq) order, which is a different —
/// equally deterministic — tie order than the classic global calendar's.
std::string star_snapshot_at(const std::string& preset, const core::Tpm* tpm,
                             std::size_t lanes) {
  scenario::ScenarioSpec spec = scenario::preset_spec(preset);
  spec.src.tpm.source = "none";  // the pointer below supplies the model
  spec.lanes = lanes;
  scenario::BuildOptions options;
  options.tpm = tpm;
  core::ExperimentConfig config = scenario::build(spec, options).config;

  obs::ObsConfig obs_config;
  obs_config.tracing = false;
  obs::Observatory observatory(obs_config);
  config.observatory = &observatory;
  const core::ExperimentResult result = core::run_experiment(config);
  return experiment_snapshot(result, observatory).dump(2);
}

TEST(LaneDeterminism, Fig7ReducedIsLaneCountInvariant) {
  const std::string one = star_snapshot_at("fig7-reduced", nullptr, 1);
  for (const std::size_t lanes : {2u, 4u}) {
    EXPECT_EQ(star_snapshot_at("fig7-reduced", nullptr, lanes), one)
        << "fig7-reduced drifted at lanes=" << lanes;
  }
}

TEST(LaneDeterminism, Table4ReducedIsLaneCountInvariant) {
  const core::Tpm* tpm = &shared_tpm();
  const std::string one = star_snapshot_at("table4-reduced", tpm, 1);
  for (const std::size_t lanes : {2u, 4u}) {
    EXPECT_EQ(star_snapshot_at("table4-reduced", tpm, lanes), one)
        << "table4-reduced drifted at lanes=" << lanes;
  }
}

// The pod preset has 7 shards, so lanes=3 (which divides neither 7 nor the
// busy-shard count) exercises uneven shard claiming. The star presets above
// run on two shards, where every lane count past 2 clamps to 2.
TEST(LaneDeterminism, PodIncastSnapshotIsLaneCountInvariantAndPinned) {
  struct Run {
    std::string snapshot;
    double windows = 0.0;  ///< the engine's sim.lane.windows gauge
  };
  auto run_at = [](std::size_t lanes) {
    scenario::ScenarioSpec spec = scenario::preset_spec("pod-incast-reduced");
    spec.lanes = lanes;
    core::PodExperimentConfig config = scenario::build_pod(spec);
    obs::ObsConfig obs_config;
    obs_config.tracing = false;
    obs::Observatory observatory(obs_config);
    config.observatory = &observatory;
    Run run{core::run_pod_experiment(config).snapshot()};
    const obs::Gauge* windows =
        observatory.metrics().find_gauge("sim.lane.windows");
    if (windows != nullptr) run.windows = windows->value();
    return run;
  };
  const Run first = run_at(1);
  const std::string& one = first.snapshot;
  EXPECT_GT(first.windows, 0.0);
  for (const std::size_t lanes : {2u, 3u, 4u}) {
    const Run other = run_at(lanes);
    EXPECT_EQ(other.snapshot, one)
        << "pod-incast-reduced drifted at lanes=" << lanes;
    EXPECT_EQ(other.windows, first.windows)
        << "window count drifted at lanes=" << lanes;
  }

  // Golden pin (text, integer-only): regenerate with SRC_UPDATE_GOLDEN=1.
  const std::string path =
      std::string(SRC_GOLDEN_DIR) + "/pod-incast-snapshot.txt";
  if (update_golden()) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out) << "cannot write golden " << path;
    out << one;
    GTEST_SKIP() << "golden regenerated: " << path;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in) << "missing golden " << path
                  << " — regenerate with SRC_UPDATE_GOLDEN=1";
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(one, buffer.str())
      << "pod-incast-reduced drifted from the committed golden. If the "
         "change is intentional, regenerate with SRC_UPDATE_GOLDEN=1.";
}

}  // namespace
}  // namespace src::regression
