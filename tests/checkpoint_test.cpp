// Checkpoint format and soak crash-resume tests: files round-trip,
// corruption in any byte is caught by the CRC trailer, foreign configs
// are refused, and a killed-and-resumed sim-backend soak produces the
// exact outcome an uninterrupted run does.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "cluster/scenario.hpp"
#include "common/bytes.hpp"
#include "common/crc32.hpp"
#include "common/shutdown.hpp"
#include "transport/checkpoint.hpp"
#include "transport/soak.hpp"

namespace rfd::transport {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "rfd_" + name + "_" +
         std::to_string(::getpid());
}

CheckpointData sample_data() {
  CheckpointData data;
  data.config_fingerprint = 0x1122334455667788ull;
  data.tick = 1234;
  data.now_ms = 123400.0;
  for (int i = 0; i < 257; ++i) {
    data.payload.push_back(static_cast<std::uint8_t>(i * 7));
  }
  return data;
}

TEST(CheckpointFile, RoundTripsAllFields) {
  const std::string path = temp_path("roundtrip");
  const CheckpointData in = sample_data();
  std::string error;
  ASSERT_TRUE(write_checkpoint(path, in, error)) << error;

  CheckpointData out;
  ASSERT_TRUE(read_checkpoint(path, in.config_fingerprint, out, error))
      << error;
  EXPECT_EQ(out.config_fingerprint, in.config_fingerprint);
  EXPECT_EQ(out.tick, in.tick);
  EXPECT_DOUBLE_EQ(out.now_ms, in.now_ms);
  EXPECT_EQ(out.payload, in.payload);
  std::remove(path.c_str());
}

TEST(CheckpointFile, RejectsCorruption) {
  const std::string path = temp_path("corrupt");
  const CheckpointData in = sample_data();
  std::string error;
  ASSERT_TRUE(write_checkpoint(path, in, error)) << error;

  // Flip one payload byte in place; the CRC trailer must catch it.
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 60, SEEK_SET);
  const int byte = std::fgetc(f);
  std::fseek(f, 60, SEEK_SET);
  std::fputc(byte ^ 0xff, f);
  std::fclose(f);

  CheckpointData out;
  EXPECT_FALSE(read_checkpoint(path, in.config_fingerprint, out, error));
  EXPECT_NE(error.find("CRC"), std::string::npos) << error;
  std::remove(path.c_str());
}

TEST(CheckpointFile, RejectsTruncation) {
  const std::string path = temp_path("truncate");
  const CheckpointData in = sample_data();
  std::string error;
  ASSERT_TRUE(write_checkpoint(path, in, error)) << error;

  // Drop the tail (as a torn write would); re-write the file shorter.
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::vector<std::uint8_t> bytes(4096);
  const std::size_t n = std::fread(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
  ASSERT_GT(n, 100u);
  f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fwrite(bytes.data(), 1, n - 40, f);
  std::fclose(f);

  CheckpointData out;
  EXPECT_FALSE(read_checkpoint(path, in.config_fingerprint, out, error));
  std::remove(path.c_str());
}

TEST(CheckpointFile, RejectsHeaderStub) {
  const std::string path = temp_path("stub");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fwrite("RFDC", 1, 4, f);
  std::fclose(f);
  CheckpointData out;
  std::string error;
  EXPECT_FALSE(read_checkpoint(path, 0, out, error));
  EXPECT_NE(error.find("truncated"), std::string::npos) << error;
  std::remove(path.c_str());
}

TEST(CheckpointFile, RejectsForeignFingerprint) {
  const std::string path = temp_path("foreign");
  const CheckpointData in = sample_data();
  std::string error;
  ASSERT_TRUE(write_checkpoint(path, in, error)) << error;
  CheckpointData out;
  EXPECT_FALSE(read_checkpoint(path, in.config_fingerprint + 1, out, error));
  EXPECT_NE(error.find("different configuration"), std::string::npos)
      << error;
  // Fingerprint 0 = caller opts out of the check.
  EXPECT_TRUE(read_checkpoint(path, 0, out, error)) << error;
  std::remove(path.c_str());
}

TEST(CheckpointFile, RejectsVersionOne) {
  // Version 1 held the 40-byte-per-pair node layout; its payload cannot
  // be read by the current node restore, so a v1 file is refused by its
  // header, with an intact CRC, before any payload is parsed.
  const std::string path = temp_path("v1");
  std::vector<std::uint8_t> bytes;
  ByteWriter w(bytes);
  w.u32(0x43444652u);  // "RFDC"
  w.u32(1);
  w.u64(0x1122334455667788ull);
  w.i64(10);
  w.f64(1000.0);
  w.u64(0);
  w.u32(crc32(bytes.data(), bytes.size()));
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fwrite(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
  CheckpointData out;
  std::string error;
  EXPECT_FALSE(read_checkpoint(path, 0, out, error));
  EXPECT_NE(error.find("unsupported checkpoint version 1"), std::string::npos)
      << error;
  std::remove(path.c_str());
}

TEST(CheckpointFile, MissingFileReportsError) {
  CheckpointData out;
  std::string error;
  EXPECT_FALSE(
      read_checkpoint(temp_path("never_written"), 0, out, error));
  EXPECT_FALSE(error.empty());
}

// --- soak resume -----------------------------------------------------

SoakConfig base_soak_config() {
  SoakConfig config;
  config.n = 10;
  config.seed = 20020623;
  config.tick_ms = 100.0;
  config.duration_ms = 24'000.0;
  config.network.loss_prob = 0.03;
  config.detector.kind = rt::DetectorKind::kFixed;
  config.detector.fixed.timeout_ms = 1'000.0;
  config.scenario.crash(4'000.0, 2)
      .partition(8'000.0, {{0, 1, 3, 4}, {5, 6, 7, 8, 9}})
      .heal(12'000.0)
      .recover(14'000.0, 2)
      .crash(18'000.0, 7);
  return config;
}

TEST(SoakResume, MatchesUninterruptedRun) {
  reset_shutdown();
  SoakConfig full = base_soak_config();
  SoakReport uninterrupted;
  std::string error;
  ASSERT_TRUE(run_soak(full, uninterrupted, error)) << error;
  // The timeline must actually exercise detection for this test to
  // mean anything.
  ASSERT_GT(uninterrupted.raises, 0);
  ASSERT_GT(uninterrupted.detection.count(), 0);

  const std::string ckpt = temp_path("resume");
  SoakConfig first_leg = base_soak_config();
  first_leg.duration_ms = 11'000.0;  // killed mid-partition
  first_leg.checkpoint_path = ckpt;
  first_leg.checkpoint_every_ms = 3'000.0;
  SoakReport half;
  ASSERT_TRUE(run_soak(first_leg, half, error)) << error;
  ASSERT_GT(half.checkpoints_written, 0);

  SoakConfig second_leg = base_soak_config();
  second_leg.checkpoint_path = ckpt;
  second_leg.resume = true;
  SoakReport resumed;
  ASSERT_TRUE(run_soak(second_leg, resumed, error)) << error;
  EXPECT_TRUE(resumed.resumed);

  EXPECT_EQ(resumed.outcome_fingerprint, uninterrupted.outcome_fingerprint);
  EXPECT_EQ(resumed.raises, uninterrupted.raises);
  EXPECT_EQ(resumed.clears, uninterrupted.clears);
  EXPECT_EQ(resumed.false_suspicions, uninterrupted.false_suspicions);
  EXPECT_EQ(resumed.missed, uninterrupted.missed);
  EXPECT_EQ(resumed.transport.sent, uninterrupted.transport.sent);
  EXPECT_EQ(resumed.transport.delivered, uninterrupted.transport.delivered);
  EXPECT_EQ(resumed.transport.dropped, uninterrupted.transport.dropped);
  EXPECT_EQ(resumed.detection.count(), uninterrupted.detection.count());
  EXPECT_EQ(resumed.final_agreement, uninterrupted.final_agreement);
  std::remove(ckpt.c_str());
}

TEST(SoakResume, RefusesForeignConfig) {
  reset_shutdown();
  const std::string ckpt = temp_path("foreign_cfg");
  SoakConfig config = base_soak_config();
  config.duration_ms = 3'000.0;
  config.checkpoint_path = ckpt;
  config.checkpoint_every_ms = 1'000.0;
  SoakReport report;
  std::string error;
  ASSERT_TRUE(run_soak(config, report, error)) << error;

  SoakConfig other = base_soak_config();
  other.seed = config.seed + 1;  // any run-defining change
  other.checkpoint_path = ckpt;
  other.resume = true;
  SoakReport resumed;
  EXPECT_FALSE(run_soak(other, resumed, error));
  EXPECT_NE(error.find("different configuration"), std::string::npos)
      << error;
  std::remove(ckpt.c_str());
}

TEST(SoakResume, ResumeWithoutCheckpointFails) {
  reset_shutdown();
  SoakConfig config = base_soak_config();
  config.checkpoint_path = temp_path("missing_ckpt");
  config.resume = true;
  SoakReport report;
  std::string error;
  EXPECT_FALSE(run_soak(config, report, error));
  EXPECT_FALSE(error.empty());
}

TEST(SoakShutdown, StopsAtNextTickAndStillCheckpoints) {
  reset_shutdown();
  const std::string ckpt = temp_path("sig_ckpt");
  SoakConfig config = base_soak_config();
  config.checkpoint_path = ckpt;
  config.checkpoint_every_ms = 5'000.0;
  request_shutdown();  // flag already set: the loop must exit on tick 1
  SoakReport report;
  std::string error;
  ASSERT_TRUE(run_soak(config, report, error)) << error;
  reset_shutdown();
  EXPECT_TRUE(report.stopped_by_signal);
  EXPECT_EQ(report.ticks_run, 0);
  EXPECT_EQ(report.checkpoints_written, 0);  // nothing ran, nothing saved

  // A shutdown arriving mid-run leaves a resumable final checkpoint.
  SoakReport fresh;
  SoakConfig first = base_soak_config();
  first.duration_ms = 6'000.0;
  first.checkpoint_path = ckpt;
  first.checkpoint_every_ms = 100'000.0;  // only the exit snapshot
  ASSERT_TRUE(run_soak(first, fresh, error)) << error;
  EXPECT_EQ(fresh.checkpoints_written, 1);
  SoakConfig second = base_soak_config();
  second.checkpoint_path = ckpt;
  second.resume = true;
  SoakReport resumed;
  ASSERT_TRUE(run_soak(second, resumed, error)) << error;
  EXPECT_TRUE(resumed.resumed);
  std::remove(ckpt.c_str());
}

}  // namespace
}  // namespace rfd::transport
