// Robustness "fuzz" tests: corrupted serialized streams and mutated model
// descriptions must produce CheckError (or a valid network) — never crashes
// or silent garbage. Parameterized over seeds for coverage breadth.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <sstream>
#include <vector>

#include "cloud/density.h"
#include "cloud/faults.h"
#include "cloud/serving.h"
#include "common/check.h"
#include "common/rng.h"
#include "common/snapshot.h"
#include "nn/model_parser.h"
#include "nn/model_zoo.h"
#include "nn/serialize.h"
#include "tensor/quant.h"

namespace ccperf {
namespace {

std::string SerializedTinyCnn() {
  nn::ModelConfig config;
  config.weight_seed = 3;
  return nn::SaveNetwork(nn::BuildTinyCnn(config));
}

class SerializedCorruption : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SerializedCorruption, NeverCrashesOnCorruptStreams) {
  static const std::string pristine = SerializedTinyCnn();
  Rng rng(GetParam());
  for (int trial = 0; trial < 40; ++trial) {
    std::string bytes = pristine;
    // Corrupt 1-8 random bytes (header region included).
    const int flips = 1 + static_cast<int>(rng.NextIndex(8));
    for (int f = 0; f < flips; ++f) {
      const auto pos = rng.NextIndex(bytes.size());
      bytes[pos] = static_cast<char>(rng.NextU64());
    }
    // A byte may be overwritten with its own value; any real change must
    // fail the container's CRCs.
    if (bytes == pristine) {
      (void)nn::LoadNetwork(bytes).OutputShape(1);
    } else {
      EXPECT_THROW((void)nn::LoadNetwork(bytes), CheckError);
    }
  }
}

TEST_P(SerializedCorruption, NeverCrashesOnTruncation) {
  static const std::string pristine = SerializedTinyCnn();
  Rng rng(GetParam() ^ 0xabcdef);
  for (int trial = 0; trial < 40; ++trial) {
    const auto cut = rng.NextIndex(pristine.size());
    EXPECT_THROW((void)nn::LoadNetwork(pristine.substr(0, cut)), CheckError);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerializedCorruption,
                         ::testing::Values(1, 2, 3, 4, 5));

class ParserFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParserFuzz, MutatedDescriptionsThrowOrParse) {
  const std::string base = R"(network t
input 3 16 16
conv conv1 out=8 kernel=3 pad=1
relu r1
maxpool p1 kernel=2 stride=2
fc f1 out=10
softmax prob
)";
  const std::string charset =
      "abconv=0123456789 \nfrom_relu.softmaxkernlstrdp@#";
  Rng rng(GetParam());
  for (int trial = 0; trial < 60; ++trial) {
    std::string text = base;
    const int edits = 1 + static_cast<int>(rng.NextIndex(6));
    for (int e = 0; e < edits; ++e) {
      const auto pos = rng.NextIndex(text.size());
      text[pos] = charset[rng.NextIndex(charset.size())];
    }
    try {
      const nn::Network net = nn::ParseModel(text);
      (void)net.OutputShape(1);
    } catch (const CheckError&) {
      // Malformed input rejected cleanly.
    }
  }
}

TEST_P(ParserFuzz, RandomGarbageRejectedCleanly) {
  Rng rng(GetParam() ^ 0x5555);
  for (int trial = 0; trial < 30; ++trial) {
    std::string text;
    const auto length = 1 + rng.NextIndex(400);
    for (std::uint64_t i = 0; i < length; ++i) {
      text += static_cast<char>(32 + rng.NextIndex(95));
      if (rng.NextIndex(20) == 0) text += '\n';
    }
    EXPECT_THROW((void)nn::ParseModel(text), CheckError) << text;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzz, ::testing::Values(11, 22, 33));

class FaultCsvFuzz : public ::testing::TestWithParam<std::uint64_t> {};

std::string PristineFaultCsv() {
  const cloud::FaultModel model{.preemption_rate = 0.5,
                                .crash_rate = 6.0,
                                .restart_s = 20.0,
                                .slowdown_rate = 3.0};
  Rng rng(17);
  return cloud::FaultScheduleCsv(
      cloud::GenerateFaultSchedule(model, 4, 3600.0, rng));
}

TEST_P(FaultCsvFuzz, CorruptedSchedulesThrowOrParseValid) {
  static const std::string pristine = PristineFaultCsv();
  Rng rng(GetParam());
  for (int trial = 0; trial < 40; ++trial) {
    std::string text = pristine;
    const int flips = 1 + static_cast<int>(rng.NextIndex(8));
    for (int f = 0; f < flips; ++f) {
      const auto pos = rng.NextIndex(text.size());
      text[pos] = static_cast<char>(32 + rng.NextIndex(95));
    }
    try {
      const cloud::FaultSchedule schedule =
          cloud::ParseFaultScheduleCsv(text);
      // If the corruption survived parsing, the schedule must be usable:
      // validated, sliceable, and safe to expand into a timeline.
      schedule.Validate();
      (void)schedule.Slice(0.0, 1800.0);
      (void)cloud::InstanceTimeline(schedule, 0, 3600.0);
    } catch (const CheckError&) {
      // Malformed input rejected cleanly.
    }
  }
}

TEST_P(FaultCsvFuzz, ShuffledRowsRejected) {
  // Fault schedules are replay logs: out-of-order rows must raise
  // CheckError rather than being silently reordered or crashing.
  static const std::string pristine = PristineFaultCsv();
  std::vector<std::string> lines;
  std::stringstream in(pristine);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  ASSERT_GT(lines.size(), 4u);
  Rng rng(GetParam() ^ 0x77);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<std::string> shuffled(lines.begin() + 1, lines.end());
    for (std::size_t i = shuffled.size(); i > 1; --i) {
      std::swap(shuffled[i - 1], shuffled[rng.NextIndex(i)]);
    }
    std::string text = lines[0] + '\n';
    for (const std::string& row : shuffled) text += row + '\n';
    try {
      (void)cloud::ParseFaultScheduleCsv(text);
      // A shuffle can accidentally restore sorted order; verify.
      const cloud::FaultSchedule schedule =
          cloud::ParseFaultScheduleCsv(text);
      schedule.Validate();
    } catch (const CheckError&) {
      // Out-of-order rows rejected.
    }
  }
}

TEST_P(FaultCsvFuzz, TruncationRejectedOrValid) {
  static const std::string pristine = PristineFaultCsv();
  Rng rng(GetParam() ^ 0xfa11);
  for (int trial = 0; trial < 40; ++trial) {
    const auto cut = rng.NextIndex(pristine.size());
    try {
      (void)cloud::ParseFaultScheduleCsv(pristine.substr(0, cut));
    } catch (const CheckError&) {
      // Expected for most cuts (mid-row or missing header).
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultCsvFuzz, ::testing::Values(7, 8, 9));

// ------------------------------------------------------- snapshot fuzzing

/// Shared inputs of every engine in the snapshot trials; a snapshot only
/// restores into an engine built from the same inputs.
struct EngineInputs {
  cloud::InstanceCatalog catalog = cloud::InstanceCatalog::AwsEc2();
  cloud::CloudSimulator sim{catalog};
  cloud::ServingSimulator serving{sim};
  cloud::ModelProfile profile = cloud::CaffeNetProfile();
  cloud::VariantPerf perf = cloud::ComputeVariantPerf(
      profile, cloud::DensityFromPlan(profile, {}), "nonpruned");
  cloud::ResourceConfig config;
  std::vector<double> trace;
  double duration_s = 60.0;
  cloud::ServingPolicy policy{
      .max_batch = 16, .max_wait_s = 0.02, .deadline_s = 2.0};
  cloud::RetryPolicy retry{.max_retries = 3, .base_backoff_s = 0.02};
  cloud::FaultSchedule faults;

  EngineInputs() {
    config.Add("p2.xlarge", 2);
    Rng rng(99);
    double t = 0.0;
    while ((t += -std::log(1.0 - rng.NextDouble()) / 15.0) <= duration_s) {
      trace.push_back(t);
    }
    const cloud::FaultModel model{.crash_rate = 120.0,
                                  .restart_s = 4.0,
                                  .slowdown_rate = 60.0,
                                  .slowdown_s = 6.0,
                                  .slowdown_factor = 2.0};
    Rng fault_rng(5);
    faults = cloud::GenerateFaultSchedule(model, 2, duration_s, fault_rng);
  }

  [[nodiscard]] cloud::FaultedServingEngine Engine() const {
    return {serving,  config, perf, trace, duration_s,
            policy,   retry,  faults};
  }
};

class SnapshotFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SnapshotFuzz, CorruptedEngineSnapshotsThrowOrRestoreValidState) {
  static const EngineInputs inputs;
  // Snapshot a mid-run engine, then hammer the bytes: every mutation must
  // either raise CheckError or restore a state the engine can run to a
  // clean finish from — never UB or a half-restored engine.
  cloud::FaultedServingEngine source = inputs.Engine();
  for (int i = 0; i < 200 && !source.Done(); ++i) source.Step();
  const std::string pristine = source.Checkpoint();

  Rng rng(GetParam());
  for (int trial = 0; trial < 40; ++trial) {
    std::string bytes = pristine;
    const int flips = 1 + static_cast<int>(rng.NextIndex(8));
    for (int f = 0; f < flips; ++f) {
      bytes[rng.NextIndex(bytes.size())] = static_cast<char>(rng.NextU64());
    }
    cloud::FaultedServingEngine engine = inputs.Engine();
    try {
      engine.Restore(bytes);
    } catch (const CheckError&) {
      continue;  // corruption detected — the common case
    }
    // Restore accepted (flips may cancel out / hit ignored padding): the
    // engine must still run to completion with coherent accounting.
    while (!engine.Done()) engine.Step();
    const cloud::ServingReport report = engine.Finish();
    EXPECT_EQ(report.requests,
              static_cast<std::int64_t>(inputs.trace.size()));
    EXPECT_EQ(report.requests, report.completed + report.dropped_deadline +
                                   report.dropped_failed);
  }
}

TEST_P(SnapshotFuzz, TruncatedEngineSnapshotsAreRejected) {
  static const EngineInputs inputs;
  cloud::FaultedServingEngine source = inputs.Engine();
  for (int i = 0; i < 100 && !source.Done(); ++i) source.Step();
  const std::string pristine = source.Checkpoint();

  Rng rng(GetParam() ^ 0x720);
  for (int trial = 0; trial < 40; ++trial) {
    cloud::FaultedServingEngine engine = inputs.Engine();
    EXPECT_THROW(engine.Restore(pristine.substr(0, rng.NextIndex(
                     pristine.size()))),
                 CheckError);
  }
}

TEST_P(SnapshotFuzz, KillAtRandomPointsResumesBitwiseIdentically) {
  static const EngineInputs inputs;
  // Reference: the uninterrupted run.
  cloud::FaultedServingEngine reference = inputs.Engine();
  std::int64_t total_steps = 0;
  while (!reference.Done()) {
    reference.Step();
    ++total_steps;
  }
  const cloud::ServingReport expected = reference.Finish();

  Rng rng(GetParam() ^ 0xdead);
  for (int trial = 0; trial < 6; ++trial) {
    const auto kill_after = rng.NextIndex(
        static_cast<std::uint64_t>(total_steps));
    cloud::FaultedServingEngine victim = inputs.Engine();
    for (std::uint64_t s = 0; s < kill_after && !victim.Done(); ++s) {
      victim.Step();
    }
    cloud::FaultedServingEngine resumed = inputs.Engine();
    resumed.Restore(victim.Checkpoint());
    while (!resumed.Done()) resumed.Step();
    const cloud::ServingReport report = resumed.Finish();
    EXPECT_EQ(report.requests, expected.requests);
    EXPECT_EQ(report.completed, expected.completed);
    EXPECT_EQ(report.retries, expected.retries);
    EXPECT_EQ(report.dropped_deadline, expected.dropped_deadline);
    EXPECT_EQ(report.dropped_failed, expected.dropped_failed);
    EXPECT_EQ(report.mean_latency_s, expected.mean_latency_s);
    EXPECT_EQ(report.p99_latency_s, expected.p99_latency_s);
    EXPECT_EQ(report.utilization, expected.utilization);
    EXPECT_EQ(report.goodput_per_s, expected.goodput_per_s);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SnapshotFuzz, ::testing::Values(21, 22, 23));

// ---------------------------------------------------- quantization fuzzing

class QuantFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(QuantFuzz, RoundTripStaysOnGridAcrossScaleDecades) {
  // Seeded round-trip sweep over twelve decades of scale: the quantized
  // code must stay in [-127, 127], dequantize back within half a step,
  // saturate cleanly, and be a fixed point of requantization.
  Rng rng(GetParam());
  for (int trial = 0; trial < 2000; ++trial) {
    const float scale = std::pow(
        10.0f, rng.NextFloat(-6.0f, 6.0f));
    // Values span the grid and a saturating margin beyond it.
    const float v = rng.NextFloat(-1.5f, 1.5f) * 127.0f * scale;
    const std::int8_t q = QuantizeToInt8(v, scale);
    ASSERT_GE(q, -127) << "v=" << v << " scale=" << scale;
    ASSERT_LE(q, 127) << "v=" << v << " scale=" << scale;
    if (std::fabs(v) <= 127.0f * scale) {
      // On-grid values dequantize back within half a quantization step
      // (plus float-rounding slack from the 1/scale and q*scale products).
      ASSERT_LE(std::fabs(static_cast<float>(q) * scale - v),
                scale * 0.5001f + std::fabs(v) * 1e-5f)
          << "v=" << v << " scale=" << scale << " q=" << int(q);
    } else if (std::fabs(v) > 127.6f * scale) {
      ASSERT_EQ(std::abs(int(q)), 127)
          << "saturation expected: v=" << v << " scale=" << scale;
    }
    // Requantizing the dequantized value must be a fixed point — this is
    // what makes repeated checkpoint/restore of quantized weights stable.
    ASSERT_EQ(QuantizeToInt8(static_cast<float>(q) * scale, scale), q)
        << "v=" << v << " scale=" << scale;
  }
}

TEST_P(QuantFuzz, SpecialValuesNeverEscapeTheGrid) {
  Rng rng(GetParam() ^ 0x1717);
  const float specials[] = {std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            std::numeric_limits<float>::denorm_min(),
                            -std::numeric_limits<float>::denorm_min(),
                            0.0f,
                            -0.0f,
                            std::numeric_limits<float>::max(),
                            std::numeric_limits<float>::lowest()};
  for (int trial = 0; trial < 500; ++trial) {
    const float v = specials[rng.NextIndex(std::size(specials))];
    const float scale =
        trial % 7 == 0 ? 0.0f : std::pow(10.0f, rng.NextFloat(-6.0f, 6.0f));
    const std::int8_t q = QuantizeToInt8(v, scale);
    ASSERT_GE(q, -127);
    ASSERT_LE(q, 127);
    if (std::isnan(v) || scale <= 0.0f) ASSERT_EQ(q, 0);
  }
}

TEST_P(QuantFuzz, RandomShapesStayBitwiseEqualToNaiveOracle) {
  // Random shapes, magnitudes, and occasional non-finite activations: the
  // packed kernel must track the naive int8 oracle bitwise everywhere, and
  // finite-scale outputs must stay finite (non-finite containment).
  Rng rng(GetParam() ^ 0x8a7e);
  for (int trial = 0; trial < 10; ++trial) {
    const auto m = static_cast<std::int64_t>(rng.NextIndex(40)) + 1;
    const auto n = static_cast<std::int64_t>(rng.NextIndex(48)) + 1;
    const auto k = static_cast<std::int64_t>(rng.NextIndex(300)) + 1;
    const float mag = std::pow(10.0f, rng.NextFloat(-3.0f, 3.0f));
    std::vector<float> a(static_cast<std::size_t>(m * k));
    std::vector<float> b(static_cast<std::size_t>(k * n));
    for (auto& x : a) x = rng.NextFloat(-mag, mag);
    for (auto& x : b) {
      x = rng.NextFloat(-mag, mag);
      const auto roll = rng.NextIndex(200);
      if (roll == 0) x = std::numeric_limits<float>::quiet_NaN();
      if (roll == 1) x = std::numeric_limits<float>::infinity();
      if (roll == 2) x = -0.0f;
    }
    std::vector<float> bias(static_cast<std::size_t>(m));
    for (auto& x : bias) x = rng.NextFloat(-1.0f, 1.0f);
    const Int8Epilogue epi{.bias = bias, .relu = trial % 2 == 0};
    std::vector<float> c_fast(static_cast<std::size_t>(m * n));
    std::vector<float> c_naive(static_cast<std::size_t>(m * n));
    GemmInt8(m, n, k, a, b, c_fast, epi);
    NaiveGemmInt8(m, n, k, a, b, c_naive, epi);
    ASSERT_EQ(0, std::memcmp(c_fast.data(), c_naive.data(),
                             c_fast.size() * sizeof(float)))
        << "trial " << trial << " m=" << m << " n=" << n << " k=" << k;
    for (const float v : c_fast) {
      ASSERT_TRUE(std::isfinite(v)) << "trial " << trial;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QuantFuzz, ::testing::Values(31, 32, 33, 34));

}  // namespace
}  // namespace ccperf
