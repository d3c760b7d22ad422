#include "serve/snapshot_store.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <utility>

#include "serve/rec_service.h"
#include "serve/shard_format.h"
#include "util/atomic_file.h"
#include "util/checksum.h"
#include "util/fault_injector.h"

namespace imcat {

namespace {

namespace fs = std::filesystem;

constexpr char kManifestName[] = "STORE_MANIFEST";
constexpr char kManifestMagic[] = "IMCATSTORE 1";
constexpr char kCorruptSuffix[] = ".corrupt";

std::string VersionToken(int64_t v) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%012" PRId64, v);
  return buffer;
}

std::string FullName(int64_t version) {
  return "full-" + VersionToken(version) + ".ims3";
}

std::string DeltaName(int64_t base_version, int64_t version) {
  return "delta-" + VersionToken(base_version) + "-" +
         VersionToken(version) + ".imd3";
}

/// Parses a store artifact filename back into kind/version/base. Returns
/// false for names the store does not manage (which the scan ignores).
bool ParseArtifactName(const std::string& name, StoreArtifact* out) {
  int64_t a = 0;
  int64_t b = 0;
  char tail = '\0';
  if (std::sscanf(name.c_str(), "full-%" SCNd64 ".ims3%c", &a, &tail) == 1 &&
      name == FullName(a)) {
    out->kind = StoreArtifact::Kind::kFull;
    out->version = a;
    out->base_version = 0;
    out->filename = name;
    return true;
  }
  if (std::sscanf(name.c_str(), "delta-%" SCNd64 "-%" SCNd64 ".imd3%c", &a,
                  &b, &tail) == 2 &&
      name == DeltaName(a, b)) {
    out->kind = StoreArtifact::Kind::kDelta;
    out->version = b;
    out->base_version = a;
    out->filename = name;
    return true;
  }
  return false;
}

/// Poll point at a durable-step boundary: when the armed crash fires, the
/// caller must return this error immediately and leave every later step
/// undone — on-disk state is then exactly what a kill between the two
/// steps would leave.
Status CrashPoint(const char* step) {
  FaultInjector& injector = FaultInjector::Instance();
  if (injector.enabled() && injector.ConsumeCrashStep()) {
    return Status::IoError(std::string("injected crash before ") + step);
  }
  return Status::OK();
}

int64_t FileBytes(const std::string& path) {
  std::error_code ec;
  const auto size = fs::file_size(path, ec);
  return ec ? 0 : static_cast<int64_t>(size);
}

/// Validates an artifact file against its own internal manifest AND the
/// versions encoded in its name: a file that parses but claims different
/// versions than its name is mis-labeled (a copy/rename gone wrong) and
/// must not enter a chain under the wrong identity.
Status ValidateArtifactFile(const std::string& path,
                            const StoreArtifact& artifact) {
  if (artifact.kind == StoreArtifact::Kind::kFull) {
    StatusOr<ShardManifest> manifest = ReadShardedSnapshotManifest(path);
    if (!manifest.ok()) return manifest.status();
    const int64_t recorded = manifest.value().parent_version;
    if (recorded != 0 && recorded != artifact.version) {
      return Status::DataLoss(path + ": manifest version " +
                              std::to_string(recorded) +
                              " does not match filename version " +
                              std::to_string(artifact.version));
    }
    return Status::OK();
  }
  StatusOr<DeltaManifest> manifest = ReadDeltaSnapshotManifest(path);
  if (!manifest.ok()) return manifest.status();
  if (manifest.value().base_version != artifact.base_version ||
      manifest.value().version != artifact.version) {
    return Status::DataLoss(
        path + ": delta chain " +
        std::to_string(manifest.value().base_version) + "->" +
        std::to_string(manifest.value().version) +
        " does not match filename chain " +
        std::to_string(artifact.base_version) + "->" +
        std::to_string(artifact.version));
  }
  return Status::OK();
}

}  // namespace

SnapshotStore::SnapshotStore(std::string dir,
                             const SnapshotStoreOptions& options)
    : dir_(std::move(dir)), options_(options) {
  if (options_.metrics == nullptr) {
    own_metrics_ = std::make_unique<MetricsRegistry>();
  }
  MetricsRegistry* metrics =
      options_.metrics != nullptr ? options_.metrics : own_metrics_.get();
  committed_total_ = metrics->GetCounter("store_committed_total");
  gc_deleted_total_ = metrics->GetCounter("store_gc_deleted_total");
  recovered_total_ = metrics->GetCounter("store_recovered_total");
  quarantined_total_ = metrics->GetCounter("store_quarantined_total");
  artifacts_gauge_ = metrics->GetGauge("store_artifacts_total");
  bytes_gauge_ = metrics->GetGauge("store_bytes");
}

StatusOr<std::unique_ptr<SnapshotStore>> SnapshotStore::Open(
    const std::string& dir, const SnapshotStoreOptions& options) {
  if (options.retain_full < 1) {
    return Status::InvalidArgument(
        "SnapshotStoreOptions::retain_full must be >= 1 (got " +
        std::to_string(options.retain_full) + ")");
  }
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return Status::IoError("cannot create store directory " + dir + ": " +
                           ec.message());
  }
  std::unique_ptr<SnapshotStore> store(new SnapshotStore(dir, options));
  IMCAT_RETURN_IF_ERROR(store->Recover());
  return store;
}

std::string SnapshotStore::PathFor(const std::string& filename) const {
  return dir_ + "/" + filename;
}

std::string SnapshotStore::FullPath(int64_t version) const {
  return PathFor(FullName(version));
}

std::string SnapshotStore::DeltaPath(int64_t base_version,
                                     int64_t version) const {
  return PathFor(DeltaName(base_version, version));
}

void SnapshotStore::QuarantineLocked(const std::string& filename,
                                     const std::string& reason) {
  std::error_code ec;
  fs::rename(PathFor(filename), PathFor(filename + kCorruptSuffix), ec);
  quarantined_total_->Increment();
  if (options_.journal != nullptr) {
    options_.journal->Append(JournalEvent("store_quarantine")
                                 .Set("file", filename)
                                 .Set("reason", reason)
                                 .Set("renamed", !static_cast<bool>(ec)));
  }
}

Status SnapshotStore::WriteManifestLocked() {
  std::ostringstream body;
  body << kManifestMagic << "\n";
  for (const StoreArtifact& a : artifacts_) {
    body << "artifact "
         << (a.kind == StoreArtifact::Kind::kFull ? "full" : "delta") << " "
         << a.version << " " << a.base_version << " "
         << (a.condemned ? "condemned" : "active") << " " << a.filename
         << "\n";
  }
  const std::string text = body.str();
  char checksum_line[32];
  std::snprintf(checksum_line, sizeof(checksum_line), "checksum %016llx\n",
                static_cast<unsigned long long>(
                    Fnv1aHash(text.data(), text.size())));
  AtomicFileWriter writer(PathFor(kManifestName));
  IMCAT_RETURN_IF_ERROR(writer.Open());
  IMCAT_RETURN_IF_ERROR(writer.Write(text));
  IMCAT_RETURN_IF_ERROR(writer.Write(std::string(checksum_line)));
  return writer.Commit();
}

namespace {

/// Outcome of parsing STORE_MANIFEST: entries in file order. A manifest
/// that is unreadable, fails its checksum, or has any malformed line is
/// reported corrupt as a whole — recovery then rebuilds from the scan.
Status ParseManifestFile(const std::string& path,
                         std::vector<StoreArtifact>* entries) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError(path + ": cannot read store manifest");
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string content = buffer.str();

  const size_t checksum_at = content.rfind("checksum ");
  if (checksum_at == std::string::npos || checksum_at == 0 ||
      content[checksum_at - 1] != '\n') {
    return Status::DataLoss(path + ": store manifest has no checksum line");
  }
  unsigned long long recorded = 0;
  if (std::sscanf(content.c_str() + checksum_at, "checksum %llx",
                  &recorded) != 1) {
    return Status::DataLoss(path + ": unparseable manifest checksum");
  }
  const uint64_t actual = Fnv1aHash(content.data(), checksum_at);
  if (actual != static_cast<uint64_t>(recorded)) {
    return Status::DataLoss(path + ": store manifest checksum mismatch");
  }

  std::istringstream lines(content.substr(0, checksum_at));
  std::string line;
  if (!std::getline(lines, line) || line != kManifestMagic) {
    return Status::DataLoss(path + ": bad store manifest magic");
  }
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    std::istringstream fields(line);
    std::string tag, kind, state;
    StoreArtifact artifact;
    if (!(fields >> tag >> kind >> artifact.version >>
          artifact.base_version >> state >> artifact.filename) ||
        tag != "artifact" || (kind != "full" && kind != "delta") ||
        (state != "active" && state != "condemned")) {
      return Status::DataLoss(path + ": malformed manifest line: " + line);
    }
    artifact.kind = kind == "full" ? StoreArtifact::Kind::kFull
                                   : StoreArtifact::Kind::kDelta;
    artifact.condemned = state == "condemned";
    entries->push_back(std::move(artifact));
  }
  return Status::OK();
}

}  // namespace

Status SnapshotStore::Recover() {
  std::lock_guard<std::mutex> lock(mu_);
  const int64_t quarantined_before = quarantined_total_->value();

  // Step 1: the durable manifest, if it survives its own checksum.
  std::vector<StoreArtifact> listed;
  bool have_manifest = false;
  const std::string manifest_path = PathFor(kManifestName);
  if (fs::exists(manifest_path)) {
    Status parsed = ParseManifestFile(manifest_path, &listed);
    if (parsed.ok()) {
      have_manifest = true;
    } else {
      listed.clear();
      recovery_.manifest_rebuilt = true;
      QuarantineLocked(kManifestName, parsed.message());
    }
  } else {
    recovery_.manifest_rebuilt = true;
  }

  std::set<std::string> active_names;
  std::set<std::string> condemned_names;
  for (const StoreArtifact& a : listed) {
    (a.condemned ? condemned_names : active_names).insert(a.filename);
  }

  // Step 2: scan the directory. Condemned files are a crashed GC's
  // unfinished deletions — finish them now, before validation, so a
  // half-deleted chain cannot be readmitted. `.tmp` files are torn atomic
  // writes (never linked into any chain): plain debris.
  std::vector<StoreArtifact> found;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (name == kManifestName) continue;
    if (name.size() > 4 && name.compare(name.size() - 4, 4, ".tmp") == 0) {
      std::error_code ec;
      fs::remove(entry.path(), ec);
      ++recovery_.tmp_removed;
      continue;
    }
    if (name.size() >= sizeof(kCorruptSuffix) &&
        name.compare(name.size() - (sizeof(kCorruptSuffix) - 1),
                     sizeof(kCorruptSuffix) - 1, kCorruptSuffix) == 0) {
      continue;  // Already quarantined by an earlier recovery.
    }
    if (condemned_names.count(name) != 0) {
      std::error_code ec;
      fs::remove(entry.path(), ec);
      gc_deleted_total_->Increment();
      continue;
    }
    StoreArtifact artifact;
    if (!ParseArtifactName(name, &artifact)) continue;  // Not ours.
    Status valid = ValidateArtifactFile(entry.path().string(), artifact);
    if (!valid.ok()) {
      QuarantineLocked(name, valid.message());
      continue;
    }
    artifact.bytes = FileBytes(entry.path().string());
    found.push_back(std::move(artifact));
  }
  // Every condemned entry is one resumed deletion, whether recovery just
  // unlinked the file or the crashed GC already had.
  recovery_.gc_resumed += static_cast<int64_t>(condemned_names.size());

  // Step 3: reconcile scan against manifest. A valid file the manifest
  // does not list is a publish that crashed before its manifest commit —
  // readmit it (that is the "recovered" in store_recovered_total). An
  // active entry with no file is an operator rm or a lost rename.
  std::sort(found.begin(), found.end(),
            [](const StoreArtifact& a, const StoreArtifact& b) {
              if (a.version != b.version) return a.version < b.version;
              return a.filename < b.filename;
            });
  std::set<std::string> found_names;
  for (const StoreArtifact& a : found) found_names.insert(a.filename);
  for (const std::string& name : active_names) {
    if (found_names.count(name) == 0 &&
        !fs::exists(PathFor(name + kCorruptSuffix))) {
      ++recovery_.missing;
    }
  }
  // Step 4: chain validation. A delta is loadable only if its base chain
  // reaches a full snapshot; orphans (their base was corrupted, removed,
  // or never existed) can never be applied and are quarantined.
  std::set<int64_t> reachable;
  for (const StoreArtifact& a : found) {
    if (a.kind == StoreArtifact::Kind::kFull) reachable.insert(a.version);
  }
  bool grew = true;
  while (grew) {
    grew = false;
    for (const StoreArtifact& a : found) {
      if (a.kind == StoreArtifact::Kind::kDelta &&
          reachable.count(a.version) == 0 &&
          reachable.count(a.base_version) != 0) {
        reachable.insert(a.version);
        grew = true;
      }
    }
  }
  std::vector<StoreArtifact> registered;
  for (StoreArtifact& a : found) {
    if (a.kind == StoreArtifact::Kind::kDelta &&
        reachable.count(a.version) == 0) {
      QuarantineLocked(a.filename,
                       "orphaned delta: no chain of registered artifacts "
                       "reaches base version " +
                           std::to_string(a.base_version));
      continue;
    }
    registered.push_back(std::move(a));
  }
  artifacts_ = std::move(registered);

  // "Recovered" counts only artifacts actually readmitted: valid, chained,
  // and absent from the durable manifest (orphans quarantined above never
  // count — they were not readmitted).
  for (const StoreArtifact& a : artifacts_) {
    if (!have_manifest || active_names.count(a.filename) == 0) {
      ++recovery_.recovered;
      recovered_total_->Increment();
    }
  }
  recovery_.quarantined = quarantined_total_->value() - quarantined_before;

  // Step 5: make the durable manifest match reality.
  IMCAT_RETURN_IF_ERROR(WriteManifestLocked());
  UpdateGaugesLocked();

  if (options_.journal != nullptr) {
    int64_t newest = 0;
    for (const StoreArtifact& a : artifacts_) {
      newest = std::max(newest, a.version);
    }
    options_.journal->Append(
        JournalEvent("store_recovery")
            .Set("dir", dir_)
            .Set("manifest_rebuilt", recovery_.manifest_rebuilt)
            .Set("recovered", recovery_.recovered)
            .Set("quarantined", recovery_.quarantined)
            .Set("missing", recovery_.missing)
            .Set("gc_resumed", recovery_.gc_resumed)
            .Set("tmp_removed", recovery_.tmp_removed)
            .Set("artifacts", static_cast<int64_t>(artifacts_.size()))
            .Set("newest_version", newest));
  }
  return Status::OK();
}

Status SnapshotStore::CommitFull(int64_t version) {
  StoreArtifact artifact;
  artifact.kind = StoreArtifact::Kind::kFull;
  artifact.version = version;
  artifact.base_version = 0;
  artifact.filename = FullName(version);
  return CommitArtifact(std::move(artifact));
}

Status SnapshotStore::CommitDelta(int64_t base_version, int64_t version) {
  StoreArtifact artifact;
  artifact.kind = StoreArtifact::Kind::kDelta;
  artifact.version = version;
  artifact.base_version = base_version;
  artifact.filename = DeltaName(base_version, version);
  return CommitArtifact(std::move(artifact));
}

Status SnapshotStore::CommitArtifact(StoreArtifact artifact) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const StoreArtifact& existing : artifacts_) {
    if (existing.filename == artifact.filename) {
      return Status::FailedPrecondition(artifact.filename +
                                        ": already registered");
    }
  }
  const std::string path = PathFor(artifact.filename);
  Status valid = ValidateArtifactFile(path, artifact);
  if (!valid.ok()) {
    if (valid.code() == StatusCode::kDataLoss && fs::exists(path)) {
      QuarantineLocked(artifact.filename, valid.message());
    }
    return valid;
  }
  artifact.bytes = FileBytes(path);

  // Durable step boundary: the artifact exists, the manifest does not
  // list it yet. A kill here is the recovery suite's "recovered" case.
  IMCAT_RETURN_IF_ERROR(CrashPoint("store manifest commit"));

  artifacts_.push_back(artifact);
  std::sort(artifacts_.begin(), artifacts_.end(),
            [](const StoreArtifact& a, const StoreArtifact& b) {
              if (a.condemned != b.condemned) return !a.condemned;
              if (a.version != b.version) return a.version < b.version;
              return a.filename < b.filename;
            });
  Status written = WriteManifestLocked();
  if (!written.ok()) {
    // The durable manifest still has the old contents; keep the in-memory
    // view consistent with it. The artifact file stays on disk and the
    // next recovery readmits it.
    artifacts_.erase(
        std::remove_if(artifacts_.begin(), artifacts_.end(),
                       [&](const StoreArtifact& a) {
                         return a.filename == artifact.filename;
                       }),
        artifacts_.end());
    return written;
  }
  committed_total_->Increment();
  UpdateGaugesLocked();
  if (options_.journal != nullptr) {
    options_.journal->Append(
        JournalEvent("store_commit")
            .Set("kind", artifact.kind == StoreArtifact::Kind::kFull
                             ? "full"
                             : "delta")
            .Set("version", artifact.version)
            .Set("base_version", artifact.base_version)
            .Set("bytes", artifact.bytes));
  }
  if (options_.gc_on_commit) return RunGCLocked();
  return Status::OK();
}

Status SnapshotStore::RunGC() {
  std::lock_guard<std::mutex> lock(mu_);
  return RunGCLocked();
}

Status SnapshotStore::RunGCLocked() {
  // Retained full snapshots: the newest retain_full of them, plus the
  // root of the live lineage.
  std::vector<int64_t> full_versions;
  for (const StoreArtifact& a : artifacts_) {
    if (!a.condemned && a.kind == StoreArtifact::Kind::kFull) {
      full_versions.push_back(a.version);
    }
  }
  std::sort(full_versions.rbegin(), full_versions.rend());
  std::set<int64_t> retained_fulls(
      full_versions.begin(),
      full_versions.begin() +
          std::min<size_t>(full_versions.size(),
                           static_cast<size_t>(options_.retain_full)));

  // Versions reachable from a retained full — those deltas stay. Chains
  // rooted at a dropped full die with it (chain-aware retention).
  std::set<int64_t> reachable(retained_fulls);
  bool grew = true;
  while (grew) {
    grew = false;
    for (const StoreArtifact& a : artifacts_) {
      if (!a.condemned && a.kind == StoreArtifact::Kind::kDelta &&
          reachable.count(a.version) == 0 &&
          reachable.count(a.base_version) != 0) {
        reachable.insert(a.version);
        grew = true;
      }
    }
  }

  // The live lineage is untouchable regardless of retention: walk back
  // from live_version_ through whatever chain produces it.
  std::set<std::string> protected_names;
  if (live_version_ >= 0) {
    int64_t cursor = live_version_;
    bool walked = true;
    while (walked) {
      walked = false;
      for (const StoreArtifact& a : artifacts_) {
        if (a.condemned || a.version != cursor) continue;
        protected_names.insert(a.filename);
        if (a.kind == StoreArtifact::Kind::kDelta) {
          cursor = a.base_version;
          walked = true;
        }
        break;
      }
    }
  }

  // Victims: deltas first, chain tip before its parent, so an interrupted
  // deletion always leaves a loadable chain *prefix* (base without tip),
  // never a delta whose base is gone.
  std::vector<std::string> victims;
  auto is_victim = [&](const StoreArtifact& a) {
    if (a.condemned) return false;
    if (protected_names.count(a.filename) != 0) return false;
    if (a.kind == StoreArtifact::Kind::kFull) {
      return retained_fulls.count(a.version) == 0;
    }
    return reachable.count(a.version) == 0;
  };
  std::vector<const StoreArtifact*> ordered;
  for (const StoreArtifact& a : artifacts_) {
    if (is_victim(a)) ordered.push_back(&a);
  }
  if (ordered.empty()) return Status::OK();
  std::sort(ordered.begin(), ordered.end(),
            [](const StoreArtifact* a, const StoreArtifact* b) {
              const bool a_delta = a->kind == StoreArtifact::Kind::kDelta;
              const bool b_delta = b->kind == StoreArtifact::Kind::kDelta;
              if (a_delta != b_delta) return a_delta;
              return a->version > b->version;
            });
  for (const StoreArtifact* a : ordered) victims.push_back(a->filename);
  std::set<std::string> victim_names(victims.begin(), victims.end());

  // Durable step 1: condemn the victims in the manifest BEFORE touching
  // any file. A kill after this write leaves condemned entries whose
  // files recovery deletes; a kill before it leaves the store unchanged.
  IMCAT_RETURN_IF_ERROR(CrashPoint("gc condemn manifest write"));
  for (StoreArtifact& a : artifacts_) {
    if (victim_names.count(a.filename) != 0) a.condemned = true;
  }
  Status condemned_written = WriteManifestLocked();
  if (!condemned_written.ok()) {
    for (StoreArtifact& a : artifacts_) {
      if (victim_names.count(a.filename) != 0) a.condemned = false;
    }
    return condemned_written;
  }

  // Durable steps 2..n: the unlinks, deltas before bases.
  int64_t deleted = 0;
  int64_t bytes_freed = 0;
  for (const std::string& name : victims) {
    IMCAT_RETURN_IF_ERROR(CrashPoint("gc unlink"));
    const std::string path = PathFor(name);
    bytes_freed += FileBytes(path);
    std::error_code ec;
    fs::remove(path, ec);
    ++deleted;
    gc_deleted_total_->Increment();
  }

  // Durable step n+1: drop the condemned entries.
  IMCAT_RETURN_IF_ERROR(CrashPoint("gc final manifest write"));
  std::vector<StoreArtifact> survivors;
  for (StoreArtifact& a : artifacts_) {
    if (victim_names.count(a.filename) == 0) survivors.push_back(a);
  }
  std::vector<StoreArtifact> previous = artifacts_;
  artifacts_ = std::move(survivors);
  Status final_written = WriteManifestLocked();
  if (!final_written.ok()) {
    artifacts_ = std::move(previous);  // Still condemned; recovery resumes.
    return final_written;
  }
  UpdateGaugesLocked();
  if (options_.journal != nullptr) {
    options_.journal->Append(
        JournalEvent("store_gc")
            .Set("deleted", deleted)
            .Set("bytes_freed", bytes_freed)
            .Set("retained", static_cast<int64_t>(artifacts_.size()))
            .Set("live_version", live_version_));
  }
  return Status::OK();
}

StatusOr<StoreLineage> SnapshotStore::NewestLineage() const {
  std::lock_guard<std::mutex> lock(mu_);
  return NewestLineageLocked();
}

StatusOr<StoreLineage> SnapshotStore::NewestLineageLocked() const {
  // Try terminal versions from newest to oldest; the first one whose
  // chain walks back to a full snapshot wins. Post-recovery every
  // registered delta is reachable, so the first candidate succeeds; this
  // stays robust anyway against a store mutated behind our back.
  std::vector<int64_t> terminals;
  for (const StoreArtifact& a : artifacts_) {
    if (!a.condemned) terminals.push_back(a.version);
  }
  std::sort(terminals.rbegin(), terminals.rend());
  terminals.erase(std::unique(terminals.begin(), terminals.end()),
                  terminals.end());
  for (int64_t terminal : terminals) {
    StoreLineage lineage;
    lineage.version = terminal;
    int64_t cursor = terminal;
    std::vector<std::string> reversed_deltas;
    bool broken = false;
    while (true) {
      // Prefer a full snapshot at this version (shortest chain).
      const StoreArtifact* full = nullptr;
      const StoreArtifact* delta = nullptr;
      for (const StoreArtifact& a : artifacts_) {
        if (a.condemned || a.version != cursor) continue;
        if (a.kind == StoreArtifact::Kind::kFull) full = &a;
        if (a.kind == StoreArtifact::Kind::kDelta) delta = &a;
      }
      if (full != nullptr) {
        lineage.full_path = PathFor(full->filename);
        break;
      }
      if (delta == nullptr) {
        broken = true;
        break;
      }
      reversed_deltas.push_back(PathFor(delta->filename));
      cursor = delta->base_version;
    }
    if (broken) continue;
    lineage.delta_paths.assign(reversed_deltas.rbegin(),
                               reversed_deltas.rend());
    return lineage;
  }
  return Status::NotFound(dir_ + ": no loadable snapshot lineage");
}

Status SnapshotStore::LoadInto(RecService* service) const {
  StoreLineage lineage;
  {
    std::lock_guard<std::mutex> lock(mu_);
    StatusOr<StoreLineage> newest = NewestLineageLocked();
    if (!newest.ok()) return newest.status();
    lineage = std::move(newest).value();
  }
  // Load outside the store lock: RecService does its own retries.
  IMCAT_RETURN_IF_ERROR(service->LoadSnapshot(lineage.full_path));
  for (const std::string& delta : lineage.delta_paths) {
    IMCAT_RETURN_IF_ERROR(service->LoadDelta(delta));
  }
  return Status::OK();
}

void SnapshotStore::set_live_version(int64_t version) {
  std::lock_guard<std::mutex> lock(mu_);
  live_version_ = version;
}

int64_t SnapshotStore::NextVersion() const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t newest = 0;
  for (const StoreArtifact& a : artifacts_) {
    if (!a.condemned) newest = std::max(newest, a.version);
  }
  newest = std::max(newest, live_version_);
  return newest + 1;
}

StoreStats SnapshotStore::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  StoreStats stats;
  stats.artifacts = static_cast<int64_t>(artifacts_gauge_->value());
  stats.bytes = static_cast<int64_t>(bytes_gauge_->value());
  stats.committed_total = committed_total_->value();
  stats.gc_deleted_total = gc_deleted_total_->value();
  stats.recovered_total = recovered_total_->value();
  stats.quarantined_total = quarantined_total_->value();
  return stats;
}

std::vector<StoreArtifact> SnapshotStore::Artifacts() const {
  std::lock_guard<std::mutex> lock(mu_);
  return artifacts_;
}

void SnapshotStore::UpdateGaugesLocked() {
  int64_t count = 0;
  int64_t bytes = 0;
  for (const StoreArtifact& a : artifacts_) {
    if (a.condemned) continue;
    ++count;
    bytes += a.bytes;
  }
  artifacts_gauge_->Set(static_cast<double>(count));
  bytes_gauge_->Set(static_cast<double>(bytes));
}

}  // namespace imcat
