#ifndef IOTDB_STORAGE_FAULT_ENV_H_
#define IOTDB_STORAGE_FAULT_ENV_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/random.h"
#include "storage/env.h"

namespace iotdb {
namespace storage {

/// File classes a fault can target, derived from the store's naming scheme
/// ("<number>.log", "<number>.sst", "<number>.vlog", "MANIFEST"/
/// "MANIFEST.tmp").
enum class FileClass {
  kWal = 0,
  kSSTable = 1,
  kManifest = 2,
  kVlog = 3,
  kOther = 4,
};
constexpr int kNumFileClasses = 5;

/// Classifies a path into a FileClass by its file-name suffix.
FileClass ClassifyFile(const std::string& path);

const char* FileClassName(FileClass file_class);

/// Per-file-class probabilities (in [0, 1]) of injecting a Status::IOError
/// into the corresponding operation.
struct FaultRates {
  double append_error = 0;
  double sync_error = 0;
  double read_error = 0;
};

/// Counters of every fault the env injected. Deterministic for a fixed seed
/// and operation sequence.
struct FaultCounters {
  uint64_t append_errors = 0;   // injected Append() failures
  uint64_t sync_errors = 0;     // injected Sync() failures
  uint64_t read_errors = 0;     // injected Read() failures
  uint64_t crashes = 0;         // simulated process crashes
  uint64_t files_truncated = 0; // files that lost an unsynced tail in a crash
  uint64_t files_dropped = 0;   // never-synced files removed by a crash
  uint64_t bytes_dropped = 0;   // unsynced bytes discarded by crashes
  uint64_t torn_tails = 0;      // crashes that left a partial (torn) record
  uint64_t files_corrupted = 0; // files hit by bit-rot injection
  uint64_t bits_flipped = 0;    // total bits flipped by bit-rot injection

  uint64_t TotalInjectedErrors() const {
    return append_errors + sync_errors + read_errors;
  }
};

/// Decorator over any Env that injects deterministic, seeded faults:
///
///  * per-file-class IOError injection on Append/Sync/Read,
///  * whole-process crash simulation — Crash(prefix) discards every byte
///    appended since the last Sync() under `prefix`, removing files that
///    were never synced, optionally leaving a torn (partially written) WAL
///    tail that recovery must detect via checksums,
///  * "dead process" windows — while a prefix is marked crashed, every
///    operation under it fails, so background flush/compaction threads of a
///    dying store cannot sneak data to disk after the crash point.
///
/// The wrapped env is not owned and must outlive this object. All methods
/// are thread-safe.
///
///   auto base = NewMemEnv();
///   FaultInjectionEnv fenv(base.get(), /*seed=*/42);
///   options.env = &fenv;
///   ... run a store, then simulate a crash:
///   fenv.MarkCrashed("/db");    // in-flight writes start failing
///   store.reset();              // "process death"
///   fenv.Crash("/db");          // unsynced state is gone
///   fenv.ClearCrashed("/db");
///   KVStore::Open(options, "/db");  // recovery path
class FaultInjectionEnv final : public Env {
 public:
  explicit FaultInjectionEnv(Env* target, uint64_t seed = 0);
  ~FaultInjectionEnv() override;

  FaultInjectionEnv(const FaultInjectionEnv&) = delete;
  FaultInjectionEnv& operator=(const FaultInjectionEnv&) = delete;

  /// Sets injection probabilities for one file class.
  void SetRates(FileClass file_class, const FaultRates& rates);

  /// Master switch for probabilistic error injection (crash simulation is
  /// always available). Off by default until any rate is set.
  void SetInjectionEnabled(bool enabled);

  /// Probability that Crash() leaves a WAL file with a random partial
  /// prefix of its unsynced tail (a "torn tail") instead of truncating the
  /// whole tail. Default 0.5.
  void SetTornTailProbability(double p);

  /// Simulates an abrupt process crash for every file under `prefix`
  /// (empty prefix = the whole filesystem): data appended since the last
  /// Sync() is discarded and files that were never synced are removed.
  Status Crash(const std::string& prefix);

  /// While a prefix is marked crashed every operation under it fails with
  /// IOError, emulating a dead process whose threads can no longer touch
  /// its files. Reads fail too.
  void MarkCrashed(const std::string& prefix);
  void ClearCrashed(const std::string& prefix);

  /// Flips `bits` seeded-random bits of `path` in place ("bit rot"). The
  /// file keeps its size and already-open read handles observe the damage,
  /// like a latent media error on a real disk. Deterministic for a fixed
  /// seed and call sequence.
  Status CorruptFile(const std::string& path, int bits);

  /// Picks a seeded-random live file of `file_class` under `dir` and flips
  /// `bits` of its bits. When `eligible` is set, only paths it accepts are
  /// candidates. Returns the victim's path, or NotFound when no candidate
  /// exists.
  Result<std::string> CorruptRandomFile(
      const std::string& dir, FileClass file_class, int bits,
      const std::function<bool(const std::string&)>& eligible = nullptr);

  FaultCounters counters() const;

  Env* target() const { return target_; }

  // Env interface -----------------------------------------------------------
  Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path) override;
  Result<std::unique_ptr<RandomAccessFile>> NewRandomAccessFile(
      const std::string& path) override;
  Result<std::unique_ptr<SequentialFile>> NewSequentialFile(
      const std::string& path) override;
  bool FileExists(const std::string& path) override;
  Result<std::vector<std::string>> ListDir(const std::string& dir) override;
  Status CreateDir(const std::string& dir) override;
  Status RemoveFile(const std::string& path) override;
  Result<uint64_t> FileSize(const std::string& path) override;
  Status RenameFile(const std::string& from, const std::string& to) override;
  Status OverwriteFileRange(const std::string& path, uint64_t offset,
                            const Slice& data) override;

 private:
  friend class FaultWritableFile;
  friend class FaultRandomAccessFile;
  friend class FaultSequentialFile;

  /// Durability bookkeeping for one writable file.
  struct FileState {
    uint64_t synced_size = 0;  // bytes guaranteed to survive a crash
    bool ever_synced = false;  // false: the whole file dies in a crash
  };

  enum class Op { kAppend, kSync, kRead };

  // All helpers below lock mu_ themselves.
  Status MaybeInject(Op op, FileClass file_class, const std::string& path);
  bool IsCrashed(const std::string& path) const;
  Status CheckAlive(const std::string& path) const;
  void OnSync(const std::string& path, uint64_t size);
  void OnRemove(const std::string& path);

  Env* const target_;

  mutable std::mutex mu_;
  Random rng_;
  bool injection_enabled_ = false;
  double torn_tail_probability_ = 0.5;
  FaultRates rates_[kNumFileClasses];
  FaultCounters counters_;
  std::map<std::string, FileState> files_;
  std::vector<std::string> crashed_prefixes_;
};

}  // namespace storage
}  // namespace iotdb

#endif  // IOTDB_STORAGE_FAULT_ENV_H_
