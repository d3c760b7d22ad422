#include "tensor/checkpoint.h"

#include <cstdio>
#include <fstream>

#include <gtest/gtest.h>

#include "data/split.h"
#include "data/synthetic.h"
#include "models/bprmf.h"
#include "models/backbone.h"
#include "tensor/init.h"
#include "tests/temp_path.h"
#include "util/fault_injector.h"
#include "util/rng.h"

namespace imcat {
namespace {

std::vector<Tensor> RandomTensors(Rng* rng) {
  std::vector<Tensor> tensors;
  tensors.push_back(RandomNormal(4, 6, rng));
  tensors.push_back(RandomNormal(1, 1, rng));
  tensors.push_back(RandomNormal(10, 3, rng));
  return tensors;
}

int64_t FileSize(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  return in.is_open() ? static_cast<int64_t>(in.tellg()) : -1;
}

std::vector<char> ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
}

void FlipByteOnDisk(const std::string& path, int64_t offset, char mask) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  f.seekg(offset);
  char byte = 0;
  f.read(&byte, 1);
  f.seekp(offset);
  byte = static_cast<char>(byte ^ mask);
  f.write(&byte, 1);
}

TrainState ExampleState() {
  TrainState state;
  state.epoch = 12;
  state.best_epoch = 10;
  state.best_recall = 0.25;
  state.best_ndcg = 0.17;
  state.best_precision = 0.05;
  state.best_hit_rate = 0.6;
  state.best_mrr = 0.31;
  state.best_num_users = 29;
  state.train_seconds = 3.5;
  state.evals_without_improvement = 1;
  state.lr_scale = 0.25;
  Rng rng(77);
  rng.NextUint64();
  state.rng = rng.GetState();
  state.has_optimizer = true;
  state.optimizer.step = 480;
  state.optimizer.m = {{0.1f, 0.2f}, {0.3f}};
  state.optimizer.v = {{0.4f, 0.5f}, {0.6f}};
  state.has_best_params = true;
  state.best_params = {{1.0f, 2.0f, 3.0f}};
  return state;
}

TEST(CheckpointTest, SaveLoadRoundTrip) {
  Rng rng(3);
  std::vector<Tensor> original = RandomTensors(&rng);
  const std::string path = TestTempPath("roundtrip.ckpt");
  ASSERT_TRUE(SaveCheckpoint(path, original).ok());

  Rng rng2(99);
  std::vector<Tensor> restored = RandomTensors(&rng2);
  ASSERT_TRUE(LoadCheckpoint(path, &restored).ok());
  for (size_t i = 0; i < original.size(); ++i) {
    ASSERT_EQ(original[i].size(), restored[i].size());
    for (int64_t j = 0; j < original[i].size(); ++j) {
      EXPECT_EQ(original[i].data()[j], restored[i].data()[j]);
    }
  }
}

TEST(CheckpointTest, ShapeMismatchRejected) {
  Rng rng(4);
  std::vector<Tensor> original = RandomTensors(&rng);
  const std::string path = TestTempPath("shape.ckpt");
  ASSERT_TRUE(SaveCheckpoint(path, original).ok());

  std::vector<Tensor> wrong = {Tensor(4, 6, true), Tensor(2, 2, true),
                               Tensor(10, 3, true)};
  Status status = LoadCheckpoint(path, &wrong);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(CheckpointTest, CountMismatchRejected) {
  Rng rng(5);
  std::vector<Tensor> original = RandomTensors(&rng);
  const std::string path = TestTempPath("count.ckpt");
  ASSERT_TRUE(SaveCheckpoint(path, original).ok());
  std::vector<Tensor> two = {Tensor(4, 6, true), Tensor(1, 1, true)};
  EXPECT_FALSE(LoadCheckpoint(path, &two).ok());
}

TEST(CheckpointTest, CorruptionDetectedAndParametersUntouched) {
  Rng rng(6);
  std::vector<Tensor> original = RandomTensors(&rng);
  const std::string path = TestTempPath("corrupt.ckpt");
  ASSERT_TRUE(SaveCheckpoint(path, original).ok());
  // Flip one byte in the middle of the file.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(40);
    char byte = 0;
    f.read(&byte, 1);
    f.seekp(40);
    byte = static_cast<char>(byte ^ 0xFF);
    f.write(&byte, 1);
  }
  Rng rng2(7);
  std::vector<Tensor> target = RandomTensors(&rng2);
  std::vector<float> before(target[0].data(),
                            target[0].data() + target[0].size());
  Status status = LoadCheckpoint(path, &target);
  ASSERT_FALSE(status.ok());
  // Corrupt load must leave the target parameters untouched.
  for (int64_t j = 0; j < target[0].size(); ++j) {
    EXPECT_EQ(target[0].data()[j], before[j]);
  }
}

TEST(CheckpointTest, NotACheckpointRejected) {
  const std::string path = TestTempPath("garbage.ckpt");
  std::ofstream(path) << "hello world";
  std::vector<Tensor> t = {Tensor(1, 1, true)};
  Status status = LoadCheckpoint(path, &t);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("not an IMCAT checkpoint"),
            std::string::npos);
}

TEST(CheckpointTest, MissingFileIsIoError) {
  std::vector<Tensor> t = {Tensor(1, 1, true)};
  EXPECT_EQ(LoadCheckpoint("/nonexistent/x.ckpt", &t).code(),
            StatusCode::kIoError);
}

TEST(CheckpointTest, ReadShapes) {
  Rng rng(8);
  std::vector<Tensor> original = RandomTensors(&rng);
  const std::string path = TestTempPath("shapes.ckpt");
  ASSERT_TRUE(SaveCheckpoint(path, original).ok());
  auto shapes = ReadCheckpointShapes(path);
  ASSERT_TRUE(shapes.ok());
  ASSERT_EQ(shapes.value().size(), 3u);
  EXPECT_EQ(shapes.value()[0], (std::pair<int64_t, int64_t>{4, 6}));
  EXPECT_EQ(shapes.value()[2], (std::pair<int64_t, int64_t>{10, 3}));
}

TEST(CheckpointTest, ModelRoundTripPreservesScores) {
  // Save a trained model's parameters, reload into a fresh instance and
  // verify identical rankings.
  SyntheticConfig config;
  config.num_users = 30;
  config.num_items = 50;
  config.num_tags = 12;
  config.num_interactions = 500;
  config.num_item_tags = 150;
  Dataset ds = GenerateSynthetic(config);
  DataSplit split = SplitByUser(ds, SplitOptions{});
  BackboneOptions bopts;
  bopts.embedding_dim = 8;

  BprModel trained(std::make_unique<Bprmf>(ds.num_users, ds.num_items, bopts),
                   ds, split, AdamOptions{}, 64);
  Rng rng(9);
  for (int step = 0; step < 20; ++step) trained.TrainStep(&rng);
  const std::string path = TestTempPath("model.ckpt");
  ASSERT_TRUE(SaveCheckpoint(path, trained.Parameters()).ok());

  bopts.seed = 999;  // Different init; must not matter after load.
  BprModel fresh(std::make_unique<Bprmf>(ds.num_users, ds.num_items, bopts),
                 ds, split, AdamOptions{}, 64);
  std::vector<Tensor> params = fresh.Parameters();
  ASSERT_TRUE(LoadCheckpoint(path, &params).ok());

  std::vector<float> a, b;
  trained.ScoreItemsForUser(3, &a);
  fresh.ScoreItemsForUser(3, &b);
  for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

// ---------------------------------------------------------------------------
// v2 format: training-state round trip and version compatibility.
// ---------------------------------------------------------------------------

TEST(CheckpointTest, TrainStateRoundTrip) {
  Rng rng(31);
  std::vector<Tensor> original = RandomTensors(&rng);
  const TrainState saved = ExampleState();
  const std::string path = TestTempPath("state.ckpt");
  ASSERT_TRUE(SaveTrainingCheckpoint(path, original, saved).ok());

  Rng rng2(32);
  std::vector<Tensor> restored = RandomTensors(&rng2);
  TrainState loaded;
  bool has_state = false;
  ASSERT_TRUE(
      LoadTrainingCheckpoint(path, &restored, &loaded, &has_state).ok());
  ASSERT_TRUE(has_state);
  EXPECT_EQ(loaded.epoch, saved.epoch);
  EXPECT_EQ(loaded.best_epoch, saved.best_epoch);
  EXPECT_EQ(loaded.best_recall, saved.best_recall);
  EXPECT_EQ(loaded.best_ndcg, saved.best_ndcg);
  EXPECT_EQ(loaded.best_precision, saved.best_precision);
  EXPECT_EQ(loaded.best_hit_rate, saved.best_hit_rate);
  EXPECT_EQ(loaded.best_mrr, saved.best_mrr);
  EXPECT_EQ(loaded.best_num_users, saved.best_num_users);
  EXPECT_EQ(loaded.train_seconds, saved.train_seconds);
  EXPECT_EQ(loaded.evals_without_improvement,
            saved.evals_without_improvement);
  EXPECT_EQ(loaded.lr_scale, saved.lr_scale);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(loaded.rng.s[i], saved.rng.s[i]);
  ASSERT_TRUE(loaded.has_optimizer);
  EXPECT_EQ(loaded.optimizer.step, saved.optimizer.step);
  EXPECT_EQ(loaded.optimizer.m, saved.optimizer.m);
  EXPECT_EQ(loaded.optimizer.v, saved.optimizer.v);
  ASSERT_TRUE(loaded.has_best_params);
  EXPECT_EQ(loaded.best_params, saved.best_params);
  for (size_t i = 0; i < original.size(); ++i) {
    for (int64_t j = 0; j < original[i].size(); ++j) {
      EXPECT_EQ(original[i].data()[j], restored[i].data()[j]);
    }
  }
}

TEST(CheckpointTest, PlainSaveHasNoStateAndLegacyLoadIgnoresState) {
  Rng rng(33);
  std::vector<Tensor> tensors = RandomTensors(&rng);
  const std::string plain = TestTempPath("plain.ckpt");
  ASSERT_TRUE(SaveCheckpoint(plain, tensors).ok());
  TrainState state;
  bool has_state = true;
  Rng rng2(34);
  std::vector<Tensor> target = RandomTensors(&rng2);
  ASSERT_TRUE(
      LoadTrainingCheckpoint(plain, &target, &state, &has_state).ok());
  EXPECT_FALSE(has_state);

  // And the tensors-only loader accepts a checkpoint that carries state.
  const std::string full = TestTempPath("full.ckpt");
  ASSERT_TRUE(SaveTrainingCheckpoint(full, tensors, ExampleState()).ok());
  Rng rng3(35);
  std::vector<Tensor> target2 = RandomTensors(&rng3);
  EXPECT_TRUE(LoadCheckpoint(full, &target2).ok());
}

TEST(CheckpointTest, Version1FilesStillLoad) {
  // Hand-write a v1 checkpoint (no train-state byte) with one 1x2 tensor
  // and verify the v2 reader accepts it.
  const std::string path = TestTempPath("v1.ckpt");
  std::vector<char> bytes;
  auto append = [&bytes](const void* data, size_t size) {
    const char* p = static_cast<const char*>(data);
    bytes.insert(bytes.end(), p, p + size);
  };
  append("IMCT", 4);
  uint32_t version = 1;
  append(&version, sizeof(version));
  uint64_t count = 1, rows = 1, cols = 2;
  append(&count, sizeof(count));
  append(&rows, sizeof(rows));
  append(&cols, sizeof(cols));
  float values[2] = {1.5f, -2.5f};
  append(values, sizeof(values));
  // FNV-1a over everything so far.
  uint64_t hash = 0xCBF29CE484222325ULL;
  for (char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001B3ULL;
  }
  append(&hash, sizeof(hash));
  std::ofstream(path, std::ios::binary).write(bytes.data(), bytes.size());

  std::vector<Tensor> target = {Tensor(1, 2, true)};
  TrainState state;
  bool has_state = true;
  ASSERT_TRUE(
      LoadTrainingCheckpoint(path, &target, &state, &has_state).ok());
  EXPECT_FALSE(has_state);
  EXPECT_EQ(target[0].data()[0], 1.5f);
  EXPECT_EQ(target[0].data()[1], -2.5f);
}

TEST(CheckpointTest, BadVersionRejected) {
  Rng rng(36);
  std::vector<Tensor> tensors = RandomTensors(&rng);
  const std::string path = TestTempPath("badversion.ckpt");
  ASSERT_TRUE(SaveCheckpoint(path, tensors).ok());
  FlipByteOnDisk(path, 4, 0x40);  // Version field starts at byte 4.
  Rng rng2(37);
  std::vector<Tensor> target = RandomTensors(&rng2);
  Status status = LoadCheckpoint(path, &target);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.ToString().find("unsupported checkpoint version"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Corruption matrix: truncations and single-bit flips in every region of
// the file must yield a descriptive non-OK Status, never a crash.
// ---------------------------------------------------------------------------

TEST(CheckpointTest, TruncationAtEveryBoundaryRejected) {
  Rng rng(38);
  std::vector<Tensor> tensors = RandomTensors(&rng);
  const std::string path = TestTempPath("trunc_src.ckpt");
  ASSERT_TRUE(SaveTrainingCheckpoint(path, tensors, ExampleState()).ok());
  const std::vector<char> bytes = ReadAll(path);
  ASSERT_GT(bytes.size(), 0u);

  // Cut the file at a spread of lengths including 0, mid-header,
  // mid-payload and one-byte-short-of-complete.
  const std::string cut = TestTempPath("trunc_cut.ckpt");
  for (size_t len :
       {size_t{0}, size_t{3}, size_t{7}, size_t{15}, size_t{40},
        bytes.size() / 2, bytes.size() - 9, bytes.size() - 1}) {
    std::ofstream(cut, std::ios::binary | std::ios::trunc)
        .write(bytes.data(), static_cast<std::streamsize>(len));
    Rng rng2(39);
    std::vector<Tensor> target = RandomTensors(&rng2);
    TrainState state;
    bool has_state = false;
    Status status = LoadTrainingCheckpoint(cut, &target, &state, &has_state);
    EXPECT_FALSE(status.ok()) << "truncation to " << len << " bytes accepted";
  }
}

TEST(CheckpointTest, TruncationAtEveryByteRejected) {
  // Exhaustive sweep on a deliberately small checkpoint (one 1x2 tensor
  // plus full train state): cut the file at *every* possible length from 0
  // to size-1 and require a clean non-OK Status each time. This subsumes
  // the spread-of-lengths sweep above for small files and guarantees no
  // parser state accepts a prefix; scripts/check.sh re-runs it under
  // ASan/UBSan so a truncated length can also never read out of bounds.
  std::vector<Tensor> tensors = {Tensor(1, 2, {0.5f, -1.0f}, true)};
  const std::string path = TestTempPath("trunc_every_src.ckpt");
  ASSERT_TRUE(SaveTrainingCheckpoint(path, tensors, ExampleState()).ok());
  const std::vector<char> bytes = ReadAll(path);
  ASSERT_GT(bytes.size(), 0u);

  const std::string cut = TestTempPath("trunc_every_cut.ckpt");
  for (size_t len = 0; len < bytes.size(); ++len) {
    std::ofstream(cut, std::ios::binary | std::ios::trunc)
        .write(bytes.data(), static_cast<std::streamsize>(len));
    std::vector<Tensor> target = {Tensor(1, 2, true)};
    TrainState state;
    bool has_state = false;
    Status status = LoadTrainingCheckpoint(cut, &target, &state, &has_state);
    EXPECT_FALSE(status.ok()) << "truncation to " << len << " of "
                              << bytes.size() << " bytes accepted";
  }
  std::remove(path.c_str());
  std::remove(cut.c_str());
}

TEST(CheckpointTest, BitFlipInEveryByteRejected) {
  // A small checkpoint so the exhaustive sweep stays fast: flip one bit in
  // every byte of the file (header, tensor shapes, payload, train state
  // and checksum) and require a clean non-OK Status each time.
  std::vector<Tensor> tensors = {Tensor(1, 2, {0.5f, -1.0f}, true)};
  TrainState state = ExampleState();
  const std::string path = TestTempPath("flip_src.ckpt");
  ASSERT_TRUE(SaveTrainingCheckpoint(path, tensors, state).ok());
  const std::vector<char> bytes = ReadAll(path);
  const std::string flipped = TestTempPath("flip_cur.ckpt");
  for (size_t offset = 0; offset < bytes.size(); ++offset) {
    std::ofstream(flipped, std::ios::binary | std::ios::trunc)
        .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    FlipByteOnDisk(flipped, static_cast<int64_t>(offset), 0x10);
    std::vector<Tensor> target = {Tensor(1, 2, true)};
    TrainState loaded;
    bool has_state = false;
    Status status =
        LoadTrainingCheckpoint(flipped, &target, &loaded, &has_state);
    EXPECT_FALSE(status.ok())
        << "bit flip at byte " << offset << " went undetected";
    EXPECT_FALSE(status.message().empty());
  }
}

TEST(CheckpointTest, ChecksumMismatchIsDataLoss) {
  Rng rng(40);
  std::vector<Tensor> tensors = RandomTensors(&rng);
  const std::string path = TestTempPath("dataloss.ckpt");
  ASSERT_TRUE(SaveCheckpoint(path, tensors).ok());
  FlipByteOnDisk(path, 40, 0x7F);  // Mid-payload.
  Rng rng2(41);
  std::vector<Tensor> target = RandomTensors(&rng2);
  Status status = LoadCheckpoint(path, &target);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
}

// ---------------------------------------------------------------------------
// Atomic-write regression: a failed save must leave any pre-existing good
// checkpoint untouched, and no stray temp file behind.
// ---------------------------------------------------------------------------

TEST(CheckpointTest, FailedWritePreservesExistingCheckpoint) {
  Rng rng(42);
  std::vector<Tensor> good = RandomTensors(&rng);
  const std::string path = TestTempPath("atomic.ckpt");
  ASSERT_TRUE(SaveCheckpoint(path, good).ok());
  const std::vector<char> before = ReadAll(path);

  // Inject an I/O failure halfway through the second save.
  Rng rng2(43);
  std::vector<Tensor> other = RandomTensors(&rng2);
  FaultInjector::Instance().Reset();
  FaultInjector::Instance().ArmWriteFailure(FileSize(path) / 2);
  Status status = SaveCheckpoint(path, other);
  FaultInjector::Instance().Reset();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIoError);

  // The original checkpoint is byte-identical and still loads.
  EXPECT_EQ(ReadAll(path), before);
  EXPECT_FALSE(std::ifstream(path + ".tmp").good()) << "temp file left over";
  Rng rng3(44);
  std::vector<Tensor> target = RandomTensors(&rng3);
  ASSERT_TRUE(LoadCheckpoint(path, &target).ok());
  for (int64_t j = 0; j < good[0].size(); ++j) {
    EXPECT_EQ(target[0].data()[j], good[0].data()[j]);
  }
}

TEST(CheckpointTest, ShortWriteProducesDetectablyCorruptFile) {
  // A torn write the writer never notices: the commit succeeds, but the
  // resulting file must be rejected by the loader (checksum/truncation),
  // not crash it.
  Rng rng(45);
  std::vector<Tensor> tensors = RandomTensors(&rng);
  const std::string path = TestTempPath("torn.ckpt");
  ASSERT_TRUE(SaveCheckpoint(path, tensors).ok());
  const int64_t full_size = FileSize(path);

  FaultInjector::Instance().Reset();
  FaultInjector::Instance().ArmShortWrite(full_size - 20);
  Status save_status = SaveCheckpoint(path, tensors);
  FaultInjector::Instance().Reset();
  ASSERT_TRUE(save_status.ok()) << "short write must be silent";
  EXPECT_LT(FileSize(path), full_size);

  Rng rng2(46);
  std::vector<Tensor> target = RandomTensors(&rng2);
  Status status = LoadCheckpoint(path, &target);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
}

TEST(CheckpointTest, InFlightBitFlipCaughtByChecksumOnLoad) {
  Rng rng(47);
  std::vector<Tensor> tensors = RandomTensors(&rng);
  const std::string path = TestTempPath("flight.ckpt");
  FaultInjector::Instance().Reset();
  FaultInjector::Instance().ArmBitFlip(/*offset=*/50, /*mask=*/0x04);
  Status save_status = SaveCheckpoint(path, tensors);
  FaultInjector::Instance().Reset();
  ASSERT_TRUE(save_status.ok());

  Rng rng2(48);
  std::vector<Tensor> target = RandomTensors(&rng2);
  Status status = LoadCheckpoint(path, &target);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
}

}  // namespace
}  // namespace imcat
