// Tests for versioned model checkpoints: round trips for every model class
// that persists, plus failure injection (corrupt files, wrong kind, wrong
// architecture) which must fail loudly rather than load garbage.
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "baselines/mscn/mscn_model.h"
#include "baselines/naru/naru_model.h"
#include "core/checkpoint.h"
#include "core/duet_model.h"
#include "core/trainer.h"
#include "data/generator.h"
#include "gtest/gtest.h"
#include "query/workload.h"

namespace duet::core {
namespace {

/// Unique temp path per test.
std::string TempPath(const std::string& tag) {
  return ::testing::TempDir() + "/duet_ckpt_" + tag + ".bin";
}

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override { table_ = data::CensusLike(1200, 42); }

  DuetModelOptions SmallOptions() const {
    DuetModelOptions o;
    o.hidden_sizes = {32, 32};
    o.residual = true;
    return o;
  }

  data::Table table_;
};

TEST_F(CheckpointTest, DuetRoundTripReproducesEstimates) {
  DuetModel model(table_, SmallOptions());
  TrainOptions topt;
  topt.epochs = 2;
  topt.batch_size = 128;
  DuetTrainer(model, topt).Train();

  const std::string path = TempPath("duet_roundtrip");
  SaveModuleFile(path, "duet", model);

  DuetModel reloaded(table_, SmallOptions());
  LoadModuleFile(path, "duet", &reloaded);

  query::WorkloadSpec spec;
  spec.num_queries = 60;
  spec.seed = 5;
  for (const auto& lq : query::WorkloadGenerator(table_, spec).Generate()) {
    EXPECT_DOUBLE_EQ(model.EstimateSelectivity(lq.query),
                     reloaded.EstimateSelectivity(lq.query));
  }
  std::remove(path.c_str());
}

TEST_F(CheckpointTest, NaruRoundTrip) {
  baselines::NaruOptions nopt;
  nopt.hidden_sizes = {32, 32};
  nopt.residual = true;
  nopt.num_samples = 20;
  baselines::NaruModel model(table_, nopt);

  const std::string path = TempPath("naru");
  SaveModuleFile(path, "naru", model);
  baselines::NaruModel reloaded(table_, nopt);
  LoadModuleFile(path, "naru", &reloaded);
  for (int64_t i = 0; i < model.parameters()[0].numel(); ++i) {
    EXPECT_FLOAT_EQ(model.parameters()[0].data()[i], reloaded.parameters()[0].data()[i]);
  }
  std::remove(path.c_str());
}

TEST_F(CheckpointTest, MscnRoundTrip) {
  baselines::MscnOptions mopt;
  mopt.bitmap_size = 100;
  baselines::MscnModel model(table_, mopt);

  const std::string path = TempPath("mscn");
  SaveModuleFile(path, "mscn", model);
  baselines::MscnModel reloaded(table_, mopt);
  LoadModuleFile(path, "mscn", &reloaded);
  query::Query q;
  q.predicates.push_back({1, query::PredOp::kGe, 1.0});
  EXPECT_DOUBLE_EQ(model.EstimateSelectivity(q), reloaded.EstimateSelectivity(q));
  std::remove(path.c_str());
}

TEST_F(CheckpointTest, FingerprintDistinguishesArchitectures) {
  DuetModel a(table_, SmallOptions());
  DuetModelOptions other = SmallOptions();
  other.hidden_sizes = {48, 48};
  DuetModel b(table_, other);
  EXPECT_NE(ModuleFingerprint(a), ModuleFingerprint(b));
  // Same architecture -> same fingerprint (weights don't matter).
  DuetModel c(table_, SmallOptions());
  EXPECT_EQ(ModuleFingerprint(a), ModuleFingerprint(c));
}

using CheckpointDeathTest = CheckpointTest;

TEST_F(CheckpointDeathTest, MissingFileFailsLoudly) {
  DuetModel model(table_, SmallOptions());
  EXPECT_DEATH(LoadModuleFile("/nonexistent/dir/ckpt.bin", "duet", &model),
               "cannot open checkpoint");
}

TEST_F(CheckpointDeathTest, GarbageFileFailsLoudly) {
  const std::string path = TempPath("garbage");
  std::ofstream(path) << "this is not a checkpoint at all";
  DuetModel model(table_, SmallOptions());
  EXPECT_DEATH(LoadModuleFile(path, "duet", &model), "not a duet checkpoint");
  std::remove(path.c_str());
}

TEST_F(CheckpointDeathTest, WrongKindFailsLoudly) {
  DuetModel model(table_, SmallOptions());
  const std::string path = TempPath("kind");
  SaveModuleFile(path, "duet", model);
  EXPECT_DEATH(LoadModuleFile(path, "naru", &model), "expected 'naru'");
  std::remove(path.c_str());
}

TEST_F(CheckpointDeathTest, ArchitectureMismatchFailsLoudly) {
  DuetModel model(table_, SmallOptions());
  const std::string path = TempPath("arch");
  SaveModuleFile(path, "duet", model);
  DuetModelOptions other = SmallOptions();
  other.hidden_sizes = {48, 48};
  DuetModel different(table_, other);
  EXPECT_DEATH(LoadModuleFile(path, "duet", &different), "fingerprint mismatch");
  std::remove(path.c_str());
}

TEST_F(CheckpointDeathTest, TruncatedFileFailsLoudly) {
  DuetModel model(table_, SmallOptions());
  const std::string path = TempPath("truncated");
  SaveModuleFile(path, "duet", model);
  // Truncate to the first 64 bytes (header survives, parameters don't).
  {
    std::ifstream in(path, std::ios::binary);
    std::string head(64, '\0');
    in.read(head.data(), 64);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(head.data(), 64);
  }
  DuetModel reloaded(table_, SmallOptions());
  EXPECT_DEATH(LoadModuleFile(path, "duet", &reloaded), "");
  std::remove(path.c_str());
}

// ---- TryLoadModuleFile: corruption yields a clean error and an untouched
// model (docs/resilience.md §4). The death tests above pin the abort-on-load
// contract of LoadModuleFile; these pin the recoverable API the registry and
// update worker use.

/// Weights before/after comparison helper: flattens every parameter.
std::vector<float> FlattenParameters(core::DuetModel& model) {
  std::vector<float> flat;
  for (const auto& p : model.parameters()) {
    flat.insert(flat.end(), p.data(), p.data() + p.numel());
  }
  return flat;
}

TEST_F(CheckpointTest, TryLoadTruncatedFileReportsErrorAndLeavesModelAlone) {
  DuetModel model(table_, SmallOptions());
  const std::string path = TempPath("try_truncated");
  SaveModuleFile(path, "duet", model);
  // Chop off the tail of the payload: checksum can no longer match and the
  // declared payload size exceeds what is on disk.
  {
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    const auto size = static_cast<size_t>(in.tellg());
    in.seekg(0);
    std::string data(size / 2, '\0');
    in.read(data.data(), static_cast<std::streamsize>(data.size()));
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(data.data(), static_cast<std::streamsize>(data.size()));
  }
  DuetModel reloaded(table_, SmallOptions());
  const std::vector<float> before = FlattenParameters(reloaded);
  const CheckpointStatus st = TryLoadModuleFile(path, "duet", &reloaded);
  EXPECT_FALSE(st.ok);
  EXPECT_NE(st.error.find("truncated checkpoint payload"), std::string::npos) << st.error;
  EXPECT_EQ(FlattenParameters(reloaded), before);
  std::remove(path.c_str());
}

TEST_F(CheckpointTest, TryLoadFlippedByteReportsChecksumMismatch) {
  DuetModel model(table_, SmallOptions());
  const std::string path = TempPath("try_bitflip");
  SaveModuleFile(path, "duet", model);
  // Flip one byte in the middle of the payload (well past the header).
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekg(0, std::ios::end);
    const auto size = static_cast<int64_t>(f.tellg());
    ASSERT_GT(size, 128);
    const int64_t at = size / 2;
    f.seekg(at);
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    f.seekp(at);
    f.write(&byte, 1);
  }
  DuetModel reloaded(table_, SmallOptions());
  const std::vector<float> before = FlattenParameters(reloaded);
  const CheckpointStatus st = TryLoadModuleFile(path, "duet", &reloaded);
  EXPECT_FALSE(st.ok);
  EXPECT_NE(st.error.find("checksum mismatch"), std::string::npos) << st.error;
  EXPECT_EQ(FlattenParameters(reloaded), before);
  std::remove(path.c_str());
}

TEST_F(CheckpointTest, TryLoadWrongVersionReportsCleanError) {
  DuetModel model(table_, SmallOptions());
  const std::string path = TempPath("try_version");
  SaveModuleFile(path, "duet", model);
  // Bump the version field (bytes 4..7, after the magic) to a future value.
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(4);
    const uint32_t future = 999;
    f.write(reinterpret_cast<const char*>(&future), sizeof(future));
  }
  DuetModel reloaded(table_, SmallOptions());
  const std::vector<float> before = FlattenParameters(reloaded);
  const CheckpointStatus st = TryLoadModuleFile(path, "duet", &reloaded);
  EXPECT_FALSE(st.ok);
  EXPECT_NE(st.error.find("unsupported checkpoint version"), std::string::npos) << st.error;
  EXPECT_EQ(FlattenParameters(reloaded), before);
  std::remove(path.c_str());
}

TEST_F(CheckpointTest, TryLoadMissingFileReportsCleanError) {
  DuetModel model(table_, SmallOptions());
  const CheckpointStatus st =
      TryLoadModuleFile("/nonexistent/dir/ckpt.bin", "duet", &model);
  EXPECT_FALSE(st.ok);
  EXPECT_NE(st.error.find("cannot open checkpoint"), std::string::npos) << st.error;
}

TEST_F(CheckpointTest, TryLoadIntactFileSucceeds) {
  DuetModel model(table_, SmallOptions());
  const std::string path = TempPath("try_ok");
  SaveModuleFile(path, "duet", model);
  DuetModel reloaded(table_, SmallOptions());
  const CheckpointStatus st = TryLoadModuleFile(path, "duet", &reloaded);
  EXPECT_TRUE(st.ok) << st.error;
  EXPECT_EQ(FlattenParameters(reloaded), FlattenParameters(model));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace duet::core
