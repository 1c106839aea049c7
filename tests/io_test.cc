// Env layer tests: Posix file operations, the atomic-write protocol, and
// the fault injector that the persistence robustness suite builds on. The
// central invariant: any injected fault makes the operation return a
// non-OK Status while the destination path stays either absent or fully
// intact — a reader can never observe a torn file.

#include <string>

#include <gtest/gtest.h>

#include "io/env.h"
#include "io/fault_env.h"
#include "temp_path.h"
#include "util/coding.h"
#include "util/crc32c.h"

namespace treelattice {
namespace {

TEST(Crc32cTest, KnownVectors) {
  // RFC 3720 test vectors for CRC-32C.
  std::string zeros(32, '\0');
  EXPECT_EQ(crc32c::Value(zeros), 0x8a9136aau);
  std::string ones(32, '\xff');
  EXPECT_EQ(crc32c::Value(ones), 0x62a8ab43u);
  EXPECT_EQ(crc32c::Value("123456789"), 0xe3069283u);
}

TEST(Crc32cTest, ExtendMatchesOneShot) {
  std::string data = "the quick brown fox jumps over the lazy dog";
  uint32_t split = crc32c::Extend(crc32c::Value(data.substr(0, 13)),
                                  data.substr(13));
  EXPECT_EQ(split, crc32c::Value(data));
}

TEST(Crc32cTest, MaskRoundTrips) {
  uint32_t crc = crc32c::Value("payload");
  EXPECT_NE(crc32c::Mask(crc), crc);
  EXPECT_EQ(crc32c::Unmask(crc32c::Mask(crc)), crc);
}

TEST(CodingTest, FixedWidthRoundTrip) {
  std::string buf;
  PutFixed32(&buf, 0xdeadbeefu);
  PutFixed64(&buf, 0x0123456789abcdefull);
  ByteReader reader(buf);
  uint32_t v32 = 0;
  uint64_t v64 = 0;
  ASSERT_TRUE(reader.GetFixed32(&v32));
  ASSERT_TRUE(reader.GetFixed64(&v64));
  EXPECT_EQ(v32, 0xdeadbeefu);
  EXPECT_EQ(v64, 0x0123456789abcdefull);
  EXPECT_TRUE(reader.empty());
  EXPECT_FALSE(reader.GetFixed32(&v32));  // past the end: clean failure
}

TEST(PosixEnvTest, WriteReadRoundTrip) {
  Env* env = Env::Default();
  std::string path = UniqueTempPath("io_roundtrip.bin");
  std::string payload("binary\0payload", 14);
  std::string contents;
  ASSERT_TRUE(WriteFileAtomic(env, path, payload).ok());
  ASSERT_TRUE(ReadFileToString(env, path, &contents).ok());
  EXPECT_EQ(contents, payload);
  Result<uint64_t> size = env->GetFileSize(path);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, payload.size());
  // The temp file of the atomic protocol must be gone.
  EXPECT_FALSE(env->FileExists(path + ".tmp"));
  ASSERT_TRUE(env->DeleteFile(path).ok());
  EXPECT_FALSE(env->FileExists(path));
}

TEST(PosixEnvTest, RandomAccessReadsAtOffsets) {
  Env* env = Env::Default();
  std::string path = UniqueTempPath("io_offsets.bin");
  ASSERT_TRUE(WriteFileAtomic(env, path, "0123456789").ok());
  Result<std::unique_ptr<RandomAccessFile>> file =
      env->NewRandomAccessFile(path);
  ASSERT_TRUE(file.ok());
  std::string chunk;
  ASSERT_TRUE((*file)->Read(3, 4, &chunk).ok());
  EXPECT_EQ(chunk, "3456");
  // Reading past EOF is a short (empty) read, not an error.
  ASSERT_TRUE((*file)->Read(100, 4, &chunk).ok());
  EXPECT_TRUE(chunk.empty());
}

TEST(PosixEnvTest, MissingFileErrors) {
  Env* env = Env::Default();
  std::string path = UniqueTempPath("io_never_written.bin");
  EXPECT_FALSE(env->FileExists(path));
  EXPECT_FALSE(env->NewRandomAccessFile(path).ok());
  EXPECT_FALSE(env->GetFileSize(path).ok());
  std::string contents;
  Status status = ReadFileToString(env, path, &contents);
  EXPECT_EQ(status.code(), StatusCode::kIOError);
}

TEST(PosixEnvTest, RenameReplacesAtomically) {
  Env* env = Env::Default();
  std::string from = UniqueTempPath("io_rename_from.bin");
  std::string to = UniqueTempPath("io_rename_to.bin");
  ASSERT_TRUE(WriteFileAtomic(env, from, "new").ok());
  ASSERT_TRUE(WriteFileAtomic(env, to, "old").ok());
  ASSERT_TRUE(env->RenameFile(from, to).ok());
  std::string contents;
  ASSERT_TRUE(ReadFileToString(env, to, &contents).ok());
  EXPECT_EQ(contents, "new");
  EXPECT_FALSE(env->FileExists(from));
}

TEST(FaultEnvTest, WriteFailureLeavesNoDestination) {
  FaultInjectingEnv env(Env::Default());
  std::string path = UniqueTempPath("io_fault_write.bin");
  env.config().fail_write_after_bytes = 10;
  Status status = WriteFileAtomic(&env, path, std::string(100, 'x'));
  EXPECT_EQ(status.code(), StatusCode::kIOError);
  EXPECT_FALSE(env.FileExists(path));
  EXPECT_FALSE(env.FileExists(path + ".tmp"));
}

TEST(FaultEnvTest, TornWriteLeavesNoDestination) {
  FaultInjectingEnv env(Env::Default());
  std::string path = UniqueTempPath("io_fault_torn.bin");
  env.config().fail_write_after_bytes = 10;
  env.config().torn_writes = true;
  Status status = WriteFileAtomic(&env, path, std::string(100, 'x'));
  EXPECT_EQ(status.code(), StatusCode::kIOError);
  // The torn prefix only ever reached the temp file, which was cleaned up.
  EXPECT_FALSE(env.FileExists(path));
  EXPECT_FALSE(env.FileExists(path + ".tmp"));
  EXPECT_EQ(env.bytes_written(), 10);
}

TEST(FaultEnvTest, SyncFailurePropagates) {
  FaultInjectingEnv env(Env::Default());
  std::string path = UniqueTempPath("io_fault_sync.bin");
  env.config().fail_sync = true;
  Status status = WriteFileAtomic(&env, path, "data");
  EXPECT_EQ(status.code(), StatusCode::kIOError);
  EXPECT_FALSE(env.FileExists(path));
  EXPECT_GE(env.syncs(), 1);
}

TEST(FaultEnvTest, RenameFailurePreservesOldDestination) {
  FaultInjectingEnv env(Env::Default());
  std::string path = UniqueTempPath("io_fault_rename.bin");
  ASSERT_TRUE(WriteFileAtomic(&env, path, "old contents").ok());
  env.config().fail_rename = true;
  Status status = WriteFileAtomic(&env, path, "new contents");
  EXPECT_EQ(status.code(), StatusCode::kIOError);
  // The failed save must not have clobbered the previous version.
  std::string contents;
  ASSERT_TRUE(ReadFileToString(&env, path, &contents).ok());
  EXPECT_EQ(contents, "old contents");
  EXPECT_FALSE(env.FileExists(path + ".tmp"));
}

TEST(FaultEnvTest, CleanupNeverMasksTheOriginalError) {
  FaultInjectingEnv env(Env::Default());
  std::string path = UniqueTempPath("io_fault_mask.bin");
  env.config().fail_rename = true;
  Status status = WriteFileAtomic(&env, path, "payload");
  EXPECT_EQ(status.code(), StatusCode::kIOError);
  // The caller must see the rename failure, not whatever the best-effort
  // Close/DeleteFile cleanup returned afterwards.
  EXPECT_NE(status.message().find("injected rename failure"),
            std::string::npos)
      << status.ToString();
  // ... and cleanup must still have run: the temp file is gone.
  EXPECT_GE(env.deletes(), 1);
  EXPECT_FALSE(env.FileExists(path + ".tmp"));
}

TEST(FaultEnvTest, ShortReadsAreLoopedOver) {
  FaultInjectingEnv env(Env::Default());
  std::string path = UniqueTempPath("io_fault_short.bin");
  std::string payload(1000, 'y');
  ASSERT_TRUE(WriteFileAtomic(&env, path, payload).ok());
  env.config().short_read_cap = 7;
  std::string contents;
  ASSERT_TRUE(ReadFileToString(&env, path, &contents).ok());
  EXPECT_EQ(contents, payload);
  EXPECT_GE(env.reads(), static_cast<int>(payload.size() / 7));
}

TEST(FaultEnvTest, ReadErrorPropagates) {
  FaultInjectingEnv env(Env::Default());
  std::string path = UniqueTempPath("io_fault_eio.bin");
  ASSERT_TRUE(WriteFileAtomic(&env, path, "data").ok());
  env.config().fail_read = true;
  std::string contents;
  Status status = ReadFileToString(&env, path, &contents);
  EXPECT_EQ(status.code(), StatusCode::kIOError);
}

}  // namespace
}  // namespace treelattice
