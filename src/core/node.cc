#include "core/node.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <functional>
#include <set>

#include "common/logging.h"
#include "sql/parser.h"
#include "storage/partition.h"

namespace brdb {

namespace {

/// The environment overrides of NodeConfig — the only environment reads in
/// src/ (scripts/check.sh enforces it). An explicit non-zero config value
/// wins, then a positive value of the variable, then the default.
struct EnvOverride {
  const char* var;
  size_t NodeConfig::*field;
  size_t fallback;
};
constexpr EnvOverride kEnvOverrides[] = {
    // check.sh runs the whole tier-1 suite a second time at depth 1.
    {"BRDB_PIPELINE_DEPTH", &NodeConfig::pipeline_depth, 2},
    // Partition count must never change what commits: a cheap determinism
    // probe on any example or test.
    {"BRDB_PARTITIONS", &NodeConfig::partitions, 1},
};

/// Resolves every defaulted (zero) knob to a concrete value, once.
NodeConfig Resolve(NodeConfig config) {
  for (const EnvOverride& o : kEnvOverrides) {
    size_t& value = config.*o.field;
    if (value > 0) continue;
    value = o.fallback;
    if (const char* env = std::getenv(o.var)) {
      long v = std::strtol(env, nullptr, 10);
      if (v > 0) value = static_cast<size_t>(v);
    }
  }
  if (config.sig_cache_capacity == 0) config.sig_cache_capacity = 65536;
  if (config.analytics_segment_blocks == 0) {
    config.analytics_segment_blocks = 16;
  }
  return config;
}

}  // namespace

DatabaseNode::DatabaseNode(NodeConfig config, Identity identity,
                           std::shared_ptr<CertificateRegistry> registry,
                           SimNetwork* net, OrderingService* ordering)
    : config_(Resolve(std::move(config))),
      identity_(std::move(identity)),
      registry_(std::move(registry)),
      net_(net),
      ordering_(ordering),
      endpoint_("peer:" + config_.name),
      db_(TxnManagerOptions{/*stripes=*/0, config_.partitions}),
      engine_(&db_),
      checkpoints_(config_.name, kCheckpointInterval) {
  if (config_.block_store_path.empty()) {
    block_store_ = std::make_unique<BlockStore>();
  } else {
    BlockStoreOptions store_options;
    store_options.fault_injector = config_.fault_injector;
    auto opened = BlockStore::Open(config_.block_store_path, store_options);
    if (opened.ok()) {
      block_store_ = std::move(opened).value();
      if (block_store_->torn_tail_truncations() > 0) {
        BRDB_LOG(kWarn, config_.name)
            << "block store recovered from a torn tail write; height "
            << block_store_->Height();
      }
    } else {
      BRDB_LOG(kError, config_.name)
          << "block store corrupt: " << opened.status().ToString();
      block_store_ = std::make_unique<BlockStore>();
    }
    if (config_.state_checkpoint_interval > 0) {
      checkpoint_writer_ = std::make_unique<CheckpointWriter>(
          config_.block_store_path + "/checkpoints");
    }
  }
  backoff_rng_.seed(static_cast<unsigned>(
      std::hash<std::string>{}(config_.name) | 1u));
  byz_mask_.store(config_.byzantine.ToMask());
  config_.partitions = db_.txn_manager()->partitions();  // power of two
  metrics_.SetPartitionCount(config_.partitions);
  // Split the executor budget across the partition groups; group 0's pool
  // doubles as the shared pool (signature verification, checkpoint
  // capture). With one partition this is exactly the old single pool.
  const size_t per_group =
      std::max<size_t>(1, config_.executor_threads / config_.partitions);
  executors_ = std::make_unique<ThreadPool>(per_group);
  for (size_t p = 1; p < config_.partitions; ++p) {
    extra_executors_.push_back(std::make_unique<ThreadPool>(per_group));
  }
  verifier_ = std::make_unique<SignatureVerifier>(executors_.get(),
                                                  config_.sig_cache_capacity);
  Status st = RegisterSystemContracts(&contracts_);
  if (!st.ok()) {
    BRDB_LOG(kError, config_.name) << st.ToString();
  }
}

DatabaseNode::~DatabaseNode() { Stop(); }

sql::ExecOptions DatabaseNode::FlowOptions() const {
  sql::ExecOptions opts =
      config_.flow == TransactionFlow::kExecuteOrderParallel
          ? sql::ExecOptions::ExecuteOrderParallel()
          : sql::ExecOptions::OrderThenExecute();
  // DDL reaches the blockchain schema only through deployment contracts.
  opts.allow_ddl = false;
  return opts;
}

Status DatabaseNode::Start() {
  if (running_.exchange(true)) return Status::OK();
  net_->RegisterEndpoint(endpoint_,
                         [this](const NetMessage& m) { OnNetMessage(m); });
  BlockPipeline::Hooks hooks;
  hooks.fetch = [this](BlockNum n, Block* out) { return FetchBlock(n, out); };
  hooks.prepare = [this](BlockWork* w) { PrepareBlock(w); };
  hooks.commit = [this](BlockWork* w) { CommitBlock(w); };
  pipeline_ = std::make_unique<BlockPipeline>(config_.pipeline_depth,
                                              std::move(hooks));
  BlockNum committed;
  {
    std::lock_guard<std::mutex> lock(blocks_mu_);
    committed = committed_height_;
  }
  if (committed == 0 && checkpoint_writer_ != nullptr) {
    committed = TryRestoreFromCheckpoint();
  }
  {
    std::lock_guard<std::mutex> lock(blocks_mu_);
    committed_height_ = committed;
    executed_height_ = committed;
    idle_polls_ = 0;
  }
  // Fresh store on every Start(): the version arena (as restored by the
  // checkpoint/replay above) is the source of truth, so a restart
  // re-derives the event history instead of double-feeding a survivor.
  HistoryBuilder::Options history_opts;
  history_opts.segment_blocks = config_.analytics_segment_blocks;
  if (!config_.block_store_path.empty()) {
    history_opts.archive_dir = config_.block_store_path + "/columnar";
  }
  column_store_ = std::make_unique<ColumnStore>();
  history_ = std::make_unique<HistoryBuilder>(&db_, column_store_.get(),
                                              history_opts);
  history_->Bootstrap(committed);
  history_->Start();
  // Seeding the pipeline at `committed` makes recovery replay just the
  // normal pipeline path: FetchBlock serves committed+1..tip from the
  // durable store and then falls through to §3.6 catch-up from ordering.
  pipeline_->Start(committed);
  return Status::OK();
}

BlockNum DatabaseNode::TryRestoreFromCheckpoint() {
  std::vector<BlockNum> heights = checkpoint_writer_->List();
  for (auto it = heights.rbegin(); it != heights.rend(); ++it) {
    const BlockNum h = *it;
    auto header = checkpoint_writer_->ReadHeader(h);
    if (!header.ok()) {
      BRDB_LOG(kWarn, config_.name)
          << "skipping checkpoint " << h << ": " << header.status().ToString();
      continue;
    }
    if (block_store_->Height() < h) {
      // The checkpoint outran the durable log (fsync off / torn tail):
      // state without its blocks is unverifiable, prefer an older one.
      BRDB_LOG(kWarn, config_.name)
          << "skipping checkpoint " << h << ": block log ends at "
          << block_store_->Height();
      continue;
    }
    auto block = block_store_->Get(h);
    if (!block.ok() || block.value().hash() != header.value().block_hash) {
      BRDB_LOG(kWarn, config_.name)
          << "skipping checkpoint " << h
          << ": block hash does not match the local chain";
      continue;
    }
    auto restored = checkpoint_writer_->Restore(h, &db_);
    if (!restored.ok()) {
      BRDB_LOG(kError, config_.name)
          << "checkpoint " << h
          << " failed to restore: " << restored.status().ToString();
      // The partial restore wiped the catalog; rebuild the pristine
      // bootstrap state before trying an older checkpoint (or genesis).
      db_.ResetToPristine();
      for (const Identity& id : seeded_identities_) {
        (void)SeedCertificateRow(id);
      }
      continue;
    }
    RebuildContractsFromDeployments();
    // Re-seed the §3.3.4 vote bookkeeping so peer votes for block h that
    // ride in post-restart blocks still compare against our root.
    checkpoints_.RecordLocal(h, restored.value().write_set_root);
    metrics_.OnCheckpointRestore(h);
    BRDB_LOG(kInfo, config_.name)
        << "restored state checkpoint at block " << h << "; replaying "
        << (block_store_->Height() - h) << " of " << block_store_->Height()
        << " blocks";
    return h;
  }
  return 0;
}

void DatabaseNode::RebuildContractsFromDeployments() {
  auto table = db_.GetTable(kDeployTable);
  if (!table.ok()) return;
  // Live 'deployed' rows, in deploy_id order (ids are assigned in commit
  // order, so replaying in id order reproduces the registry evolution —
  // later re-deployments of a name win, drops land after their creates).
  struct Deployed {
    int64_t id;
    std::string sql_text;
    BlockNum block;  ///< block that committed the deployment (version stamp)
  };
  std::vector<Deployed> rows;
  for (RowId id : table.value()->ScanAllRowIds()) {
    VersionMeta meta = table.value()->MetaOf(id);
    if (meta.creator_aborted || meta.xmax != 0) continue;
    const Row& row = table.value()->ValuesOf(id);
    if (row.size() < 4 || row[3].AsText() != "deployed") continue;
    rows.push_back({row[0].AsInt(), row[1].AsText(), meta.creator_block});
  }
  std::sort(rows.begin(), rows.end(),
            [](const Deployed& a, const Deployed& b) { return a.id < b.id; });
  for (const Deployed& dep : rows) {
    auto parsed = ParseDeploymentSql(dep.sql_text);
    if (!parsed.ok()) continue;
    RegistryOp op;
    switch (parsed.value().kind) {
      case DeploymentSql::Kind::kCreateProcedure:
        op.kind = RegistryOp::Kind::kRegisterProcedure;
        op.name = parsed.value().name;
        op.body = parsed.value().body;
        op.num_params = parsed.value().num_params;
        break;
      case DeploymentSql::Kind::kDropProcedure:
        op.kind = RegistryOp::Kind::kDropProcedure;
        op.name = parsed.value().name;
        break;
      case DeploymentSql::Kind::kDdl:
        continue;  // tables came back with the checkpoint itself
    }
    Status applied = contracts_.Apply(op, dep.block);
    if (!applied.ok()) {
      BRDB_LOG(kWarn, config_.name)
          << "restoring deployment " << dep.id
          << " failed: " << applied.ToString();
    }
  }
}

void DatabaseNode::Stop() {
  if (!running_.exchange(false)) return;
  blocks_cv_.notify_all();
  height_cv_.notify_all();
  exec_cv_.notify_all();
  if (pipeline_ != nullptr) pipeline_->Stop();
  if (history_ != nullptr) history_->Stop();
  net_->UnregisterEndpoint(endpoint_);
  executors_->Wait();
}

BlockNum DatabaseNode::Height() const {
  return committed_height_.load(std::memory_order_acquire);
}

BlockNum DatabaseNode::ExecutedHeight() const {
  std::lock_guard<std::mutex> lock(blocks_mu_);
  return executed_height_;
}

void DatabaseNode::SetPeerEndpoints(std::vector<std::string> endpoints) {
  peer_endpoints_ = std::move(endpoints);
}

Status DatabaseNode::SeedCertificate(const Identity& id) {
  // Remember the identity: if a later checkpoint restore is abandoned
  // mid-way, the pristine rebuild must replay these bootstrap rows.
  seeded_identities_.push_back(id);
  return SeedCertificateRow(id);
}

Status DatabaseNode::SeedCertificateRow(const Identity& id) {
  TxnContext ctx(&db_,
                 db_.txn_manager()->BeginAtCurrentCsn(),
                 TxnMode::kInternal);
  sql::ExecOptions lenient;
  auto r = engine_.Execute(
      &ctx, "INSERT INTO pgcerts VALUES ($1, $2, $3, $4)",
      {Value::Text(id.name), Value::Text(id.organization),
       Value::Text(PrincipalRoleToString(id.role)),
       Value::Int(static_cast<int64_t>(id.keys.public_key))},
      lenient);
  if (!r.ok()) return r.status();
  return ctx.CommitInternal(0);
}

DatabaseNode::SubscriptionId DatabaseNode::Subscribe(NotificationFn fn) {
  std::lock_guard<std::mutex> lock(subs_mu_);
  SubscriptionId id = next_sub_id_++;
  subscribers_.emplace(id, std::move(fn));
  return id;
}

void DatabaseNode::Unsubscribe(SubscriptionId id) {
  std::lock_guard<std::mutex> lock(subs_mu_);
  subscribers_.erase(id);
}

void DatabaseNode::Notify(const std::string& txid, const Status& status,
                          BlockNum block) {
  // Callbacks run under subs_mu_ so Unsubscribe() synchronizes with
  // delivery: once it returns, no callback for that subscription is running
  // or will run — a destroyed subscriber (transport, session) is safe.
  // Callbacks therefore must not re-enter Subscribe/Unsubscribe.
  TxnNotification n{txid, status, block};
  std::lock_guard<std::mutex> lock(subs_mu_);
  for (const auto& [id, fn] : subscribers_) fn(n);
}

Status DatabaseNode::Authenticate(const Transaction& tx,
                                  PrincipalRole* role_out,
                                  bool skip_signature,
                                  bool allow_pgcerts_fallback) {
  if (skip_signature) {
    // The verifier cache already vouched for this txid; only the role
    // remains to resolve.
    auto role = registry_->RoleOf(tx.user());
    if (role.ok()) {
      *role_out = role.value();
      return Status::OK();
    }
    if (!allow_pgcerts_fallback) return role.status();
  } else {
    Status st = tx.Authenticate(*registry_);
    if (st.ok()) {
      auto role = registry_->RoleOf(tx.user());
      *role_out = role.ok() ? role.value() : PrincipalRole::kClient;
      verifier_->MarkVerified(tx);
      return Status::OK();
    }
    if (st.code() != StatusCode::kNotFound) return st;
    if (!allow_pgcerts_fallback) return st;
  }

  // Fall back to pgcerts: users onboarded on-chain via create_user.
  TxnContext ctx(&db_,
                 db_.txn_manager()->BeginAtCurrentCsn(),
                 TxnMode::kInternal);
  auto r = engine_.Execute(&ctx,
                           "SELECT pubkey, role FROM pgcerts "
                           "WHERE username = $1",
                           {Value::Text(tx.user())});
  if (!r.ok()) return r.status();
  if (r.value().rows.size() != 1) {
    return Status::NotFound("unknown user " + tx.user());
  }
  if (!skip_signature) {
    uint64_t pubkey =
        static_cast<uint64_t>(r.value().rows[0][0].AsInt());
    if (!Schnorr::Verify(pubkey, tx.SignedPayload(), tx.signature())) {
      return Status::PermissionDenied("signature verification failed for " +
                                      tx.user());
    }
    verifier_->MarkVerified(tx);
  }
  const std::string& role = r.value().rows[0][1].AsText();
  *role_out =
      role == "admin" ? PrincipalRole::kAdmin : PrincipalRole::kClient;
  return Status::OK();
}

bool DatabaseNode::IsDuplicate(const std::string& txid) {
  // Direct index probe on pgledger.txid — this runs on every submission and
  // every block transaction, so it bypasses SQL parsing entirely.
  auto table = db_.GetTable(kLedgerTable);
  if (!table.ok()) return false;
  int col = table.value()->schema().ColumnIndex("txid");
  Value key = Value::Text(txid);
  auto ids = table.value()->IndexRange(col, &key, true, &key, true);
  if (!ids.ok()) return false;
  for (RowId id : ids.value()) {
    VersionMeta meta = table.value()->MetaOf(id);
    if (meta.creator_aborted) continue;
    if (db_.txn_manager()->StateOf(meta.xmin) == TxnState::kCommitted) {
      return true;
    }
  }
  return false;
}

Status DatabaseNode::SubmitTransaction(const Transaction& tx) {
  if (!running_.load()) return Status::Unavailable("node not running");
  // A chaos kill severs this node's network entirely; the direct ordering
  // call below bypasses SimNetwork, so gate it here too.
  if (config_.chaos != nullptr && config_.chaos->EndpointDown(config_.name)) {
    return Status::Unavailable("node network down (chaos kill)");
  }
  if (config_.flow != TransactionFlow::kExecuteOrderParallel) {
    return Status::InvalidArgument(
        "order-then-execute clients submit to the ordering service");
  }
  PrincipalRole role;
  BRDB_RETURN_NOT_OK(Authenticate(tx, &role));
  {
    std::lock_guard<std::mutex> lock(exec_mu_);
    if (active_.count(tx.id())) {
      return Status::AlreadyExists("transaction already submitted");
    }
  }
  if (IsDuplicate(tx.id())) {
    return Status::AlreadyExists("transaction id already on the ledger");
  }
  // Forward to the other peers and to ordering in the background (§3.4.1).
  std::string bytes = tx.Encode();
  net_->Broadcast(endpoint_, peer_endpoints_, kMsgForwardTx, bytes);
  BRDB_RETURN_NOT_OK(ordering_->SubmitTransaction(tx));
  StartExecution(tx, /*eop_mode=*/true);
  return Status::OK();
}

void DatabaseNode::OnNetMessage(const NetMessage& m) {
  if (m.type == kMsgBlock) {
    auto block = Block::Decode(m.payload);
    if (block.ok()) EnqueueBlock(std::move(block).value());
    return;
  }
  if (m.type == kMsgForwardTx) {
    auto tx = Transaction::Decode(m.payload);
    if (!tx.ok()) return;
    PrincipalRole role;
    if (!Authenticate(tx.value(), &role).ok()) return;
    StartExecution(tx.value(), /*eop_mode=*/true);
    return;
  }
}

void DatabaseNode::EnqueueBlock(Block block) {
  metrics_.OnBlockReceived();
  Status st = block.VerifySignatures(*registry_, /*min_signatures=*/1,
                                     executors_.get());
  if (!st.ok()) {
    BRDB_LOG(kWarn, config_.name)
        << "rejecting block " << block.number() << ": " << st.ToString();
    return;
  }
  std::lock_guard<std::mutex> lock(blocks_mu_);
  if (block.number() <= block_store_->Height()) return;  // duplicate
  pending_blocks_.emplace(block.number(), std::move(block));
  DrainPendingLocked();
  blocks_cv_.notify_all();
}

void DatabaseNode::DrainPendingLocked() {
  // Move any in-sequence prefix into the durable store. A failed append
  // (I/O error on a file-backed store) keeps the block in pending_blocks_
  // so the next enqueue or fetch poll retries it — but on a bounded
  // exponential backoff: every enqueue and every ~2ms fetch poll lands
  // here, and hammering a sick disk at poll rate helps nobody.
  if (append_fail_streak_ > 0 &&
      std::chrono::steady_clock::now() < next_append_retry_) {
    return;
  }
  for (auto it = pending_blocks_.begin();
       it != pending_blocks_.end() &&
       it->first == block_store_->Height() + 1;) {
    Status append = block_store_->Append(it->second);
    if (!append.ok()) {
      metrics_.OnBlockAppendFailure();
      ++append_fail_streak_;
      // 2ms doubling per consecutive failure, capped at 500ms, scaled by
      // a uniform [0.75, 1.25) jitter so a fleet of peers retrying a
      // shared sick volume doesn't thunder in lockstep.
      uint64_t shift = std::min<uint64_t>(append_fail_streak_ - 1, 8);
      double base_ms = std::min(500.0, 2.0 * static_cast<double>(1ULL << shift));
      double unit = static_cast<double>(backoff_rng_() - backoff_rng_.min()) /
                    static_cast<double>(backoff_rng_.max() - backoff_rng_.min());
      auto delay_ms =
          std::max<uint64_t>(1, static_cast<uint64_t>(base_ms * (0.75 + 0.5 * unit)));
      next_append_retry_ = std::chrono::steady_clock::now() +
                           std::chrono::milliseconds(delay_ms);
      metrics_.SetBlockAppendRetryBackoffMs(delay_ms);
      BRDB_LOG(kError, config_.name)
          << "block " << it->first
          << " append failed (kept pending, retry in " << delay_ms
          << " ms): " << append.ToString();
      break;
    }
    if (append_fail_streak_ > 0) {
      append_fail_streak_ = 0;
      metrics_.SetBlockAppendRetryBackoffMs(0);
    }
    it = pending_blocks_.erase(it);
  }
}

bool DatabaseNode::FetchBlock(BlockNum next, Block* out) {
  if (!running_.load()) return false;
  {
    std::lock_guard<std::mutex> lock(blocks_mu_);
    DrainPendingLocked();  // retry appends that failed earlier
  }
  if (block_store_->Height() >= next) {
    auto block = block_store_->Get(next);
    if (block.ok()) {
      fetch_fail_streak_ = 0;
      *out = std::move(block).value();
      return true;
    }
    // A corrupt store read is likely permanent: back off instead of
    // spinning hot, and keep the log rate bounded (the seed gave up with
    // one line; retrying leaves room for an operator-repaired store).
    if (fetch_fail_streak_++ % 512 == 0) {
      BRDB_LOG(kError, config_.name)
          << "block " << next
          << " unreadable from store (retrying): "
          << block.status().ToString();
    }
    std::unique_lock<std::mutex> lock(blocks_mu_);
    blocks_cv_.wait_for(lock, std::chrono::milliseconds(2));
    return false;
  }
  bool gap;
  {
    std::lock_guard<std::mutex> lock(blocks_mu_);
    gap = !pending_blocks_.empty() &&
          pending_blocks_.begin()->first > block_store_->Height() + 1;
  }
  // Missing block (§3.6): an observed gap triggers an immediate
  // retransmission fetch; even without one, poll ordering periodically —
  // a node whose deliveries were lost (partition, restart) must catch up
  // on its own once connectivity returns. The direct ordering call
  // bypasses SimNetwork, so a chaos kill must gate it here — otherwise a
  // "dead" node would keep catching up through the back door.
  if ((gap || ++idle_polls_ % 50 == 0) &&
      !(config_.chaos != nullptr && config_.chaos->EndpointDown(config_.name))) {
    auto missing = ordering_->GetBlock(next);
    if (missing.ok()) {
      EnqueueBlock(std::move(missing).value());
      return false;  // the next fetch round reads it from the store
    }
  }
  std::unique_lock<std::mutex> lock(blocks_mu_);
  blocks_cv_.wait_for(lock, std::chrono::milliseconds(2));
  return false;
}

std::shared_ptr<ExecEntry> DatabaseNode::StartExecution(
    const Transaction& tx, bool eop_mode, BlockNum started_by_block) {
  {
    std::lock_guard<std::mutex> lock(exec_mu_);
    auto it = active_.find(tx.id());
    if (it != active_.end()) {
      if (started_by_block == 0) return it->second;
      if (it->second->claimed_by_block == 0 ||
          it->second->claimed_by_block == started_by_block) {
        it->second->claimed_by_block = started_by_block;
        return it->second;
      }
      // The txid is already claimed by an earlier in-flight block: once
      // that block commits, this instance is a ledger duplicate — the
      // same conclusion the serial loop reached through IsDuplicate.
      auto dup = std::make_shared<ExecEntry>();
      dup->tx = tx;
      dup->exec_status =
          Status::AlreadyExists("duplicate transaction identifier");
      dup->done = true;
      return dup;
    }
  }
  auto entry = std::make_shared<ExecEntry>();
  entry->tx = tx;
  entry->started_by_block = started_by_block;
  entry->claimed_by_block = started_by_block;

  PrincipalRole role = PrincipalRole::kClient;
  // Skip the signature check when a batch-verification stage or an earlier
  // path (submission, forward) already verified this exact signed content.
  // Block-started entries must not consult pgcerts here: it is
  // block-ordered state an in-flight earlier block may still change
  // (create_user / delete_user / update_user_key), so a prepare-time read
  // would make the decision depend on pipeline depth. The immutable
  // bootstrap registry decides the fast path; anything else defers to the
  // executor task, which authenticates in full at committed height
  // block-1 — the exact point the legacy serial loop authenticated at.
  Status auth = Authenticate(
      tx, &role, /*skip_signature=*/verifier_->WasVerified(tx),
      /*allow_pgcerts_fallback=*/started_by_block == 0);
  entry->role = role;
  entry->auth_retry = !auth.ok() && started_by_block > 0;
  bool duplicate = (auth.ok() || entry->auth_retry) && IsDuplicate(tx.id());
  {
    std::lock_guard<std::mutex> lock(exec_mu_);
    auto [it, inserted] = active_.emplace(tx.id(), entry);
    if (!inserted) {
      if (started_by_block > 0 && it->second->claimed_by_block == 0) {
        it->second->claimed_by_block = started_by_block;
      }
      return it->second;
    }
    if (!auth.ok() && !entry->auth_retry) {
      entry->exec_status = auth;
      entry->done = true;
      exec_cv_.notify_all();
      return entry;
    }
    if (duplicate && !entry->auth_retry) {
      entry->exec_status =
          Status::AlreadyExists("duplicate transaction identifier");
      entry->done = true;
      exec_cv_.notify_all();
      return entry;
    }
  }

  const uint32_t home = RouteToPartition(tx);
  metrics_.OnTxnRouted(home);
  ExecutorGroup(home)->Submit([this, entry, eop_mode, started_by_block, auth,
                               duplicate, home] {
    Micros t0 = RealClock::Shared()->NowMicros();
    auto finish = [&](const Status& st) {
      entry->exec_status = st;
      // Notify while holding the lock: the commit thread may observe
      // done==true and finish node shutdown the instant the lock drops,
      // so a notify after unlock could touch a destroyed cv.
      std::lock_guard<std::mutex> lock(exec_mu_);
      entry->done = true;
      exec_cv_.notify_all();
    };
    // Wait under blocks_mu_ until `pred` (a committed-height condition)
    // holds or the node stops; true when the node is still running.
    auto wait_height = [&](auto pred) {
      std::unique_lock<std::mutex> lock(blocks_mu_);
      height_cv_.wait(lock, [&] { return !running_.load() || pred(); });
      return running_.load();
    };

    Snapshot snap;
    if (eop_mode) {
      BlockNum h = entry->tx.snapshot_height();
      std::unique_lock<std::mutex> lock(blocks_mu_);
      height_cv_.wait(lock, [&] {
        return !running_.load() || entry->doomed_invalid ||
               committed_height_ >= h;
      });
      if (!running_.load() || entry->doomed_invalid) {
        lock.unlock();
        finish(Status::SerializationFailure(
            "snapshot height " + std::to_string(h) + " unreachable"));
        return;
      }
      snap = Snapshot::AtBlockHeight(h);
    } else if (started_by_block > 0) {
      // OTE snapshot barrier: "execute on the state committed by the
      // previous block". Redundant at depth 1 (the prepare stage already
      // waited) but authoritative under pipelining.
      if (!wait_height(
              [&] { return committed_height_ >= started_by_block - 1; })) {
        finish(Status::Unavailable("node stopping"));
        return;
      }
    }

    Status auth_status = auth;
    PrincipalRole role = entry->role;
    if (entry->auth_retry) {
      if (!wait_height(
              [&] { return committed_height_ >= started_by_block - 1; })) {
        finish(Status::Unavailable("node stopping"));
        return;
      }
      auth_status = Authenticate(entry->tx, &role,
                                 verifier_->WasVerified(entry->tx));
      if (!auth_status.ok()) {
        finish(auth_status);
        return;
      }
      entry->role = role;
      if (duplicate) {
        finish(Status::AlreadyExists("duplicate transaction identifier"));
        return;
      }
    }

    // Contract versions are resolved by block height (below), so no
    // registry wait is needed here: the snapshot barriers above already
    // guarantee every registry op at or below the resolution height has
    // been applied, and ops from later in-flight blocks are stamped with
    // their block number and skipped by ResolveAt regardless of timing.

    TxnInfo* info =
        eop_mode ? db_.txn_manager()->Begin(snap, entry->tx.id(), home)
                 : db_.txn_manager()->BeginAtCurrentCsn(entry->tx.id(), home);
    entry->txn = std::make_unique<TxnContext>(&db_, info, TxnMode::kNormal);

    ContractContext cctx(entry->txn.get(), &engine_, &contracts_,
                         entry->tx.user(), entry->tx.args(), FlowOptions());
    cctx.set_invoker_role(role);
    // Resolve the contract at the same height the transaction reads data:
    // the client's snapshot height (EOP) or the state committed by the
    // previous block (OTE). Client submissions and peer forwards
    // (started_by_block == 0) are EOP and carry their snapshot height.
    const BlockNum resolve_at =
        eop_mode ? entry->tx.snapshot_height()
                 : (started_by_block > 0 ? started_by_block - 1
                                         : kLatestBlock);
    entry->exec_status =
        contracts_.Invoke(entry->tx.contract(), &cctx, resolve_at);
    entry->registry_ops = cctx.pending_registry_ops();

    entry->exec_us = RealClock::Shared()->NowMicros() - t0;
    metrics_.OnTxnExecuted(entry->exec_us);
    {
      // Notify under the lock — see `finish` above for the shutdown race.
      std::lock_guard<std::mutex> lock(exec_mu_);
      entry->done = true;
      exec_cv_.notify_all();
    }
  });
  return entry;
}

uint32_t DatabaseNode::RouteToPartition(const Transaction& tx) const {
  if (config_.partitions <= 1) return 0;
  if (!tx.args().empty()) {
    return PartitionOfValue(tx.args()[0], config_.partitions);
  }
  return PartitionOfValue(Value::Text(tx.id()), config_.partitions);
}

void DatabaseNode::WriteLedgerRows(
    const Block& block,
    const std::vector<std::shared_ptr<ExecEntry>>& entries) {
  TxnContext ctx(&db_,
                 db_.txn_manager()->BeginAtCurrentCsn(),
                 TxnMode::kInternal);
  for (size_t i = 0; i < entries.size(); ++i) {
    const Transaction& tx = entries[i]->tx;
    std::string args_text;
    for (size_t a = 0; a < tx.args().size(); ++a) {
      if (a) args_text += ",";
      args_text += tx.args()[a].ToString();
    }
    auto r = engine_.Execute(
        &ctx,
        "INSERT INTO pgledger (block_num, tx_seq, txid, username, contract, "
        "args, commit_time) VALUES ($1, $2, $3, $4, $5, $6, $7)",
        {Value::Int(static_cast<int64_t>(block.number())),
         Value::Int(static_cast<int64_t>(i)), Value::Text(tx.id()),
         Value::Text(tx.user()), Value::Text(tx.contract()),
         Value::Text(args_text),
         Value::Int(RealClock::Shared()->NowMicros())});
    if (!r.ok()) {
      BRDB_LOG(kError, config_.name)
          << "pgledger insert failed: " << r.status().ToString();
    }
  }
  Status st = ctx.CommitInternal(block.number());
  if (!st.ok()) {
    BRDB_LOG(kError, config_.name) << st.ToString();
  }
}

void DatabaseNode::UpdateLedgerStatuses(
    const Block& block,
    const std::vector<std::shared_ptr<ExecEntry>>& entries) {
  TxnContext ctx(&db_,
                 db_.txn_manager()->BeginAtCurrentCsn(),
                 TxnMode::kInternal);
  for (const auto& entry : entries) {
    std::string status = entry->exec_status.ok()
                             ? "committed"
                             : std::string("aborted: ") +
                                   StatusCodeToString(
                                       entry->exec_status.code());
    int64_t local_id =
        entry->txn != nullptr ? static_cast<int64_t>(entry->txn->id()) : 0;
    auto r = engine_.Execute(
        &ctx,
        "UPDATE pgledger SET status = $2, local_txn = $3 "
        "WHERE txid = $1 AND block_num = $4",
        {Value::Text(entry->tx.id()), Value::Text(status),
         Value::Int(local_id),
         Value::Int(static_cast<int64_t>(block.number()))});
    if (!r.ok()) {
      BRDB_LOG(kError, config_.name)
          << "pgledger status update failed: " << r.status().ToString();
    }
  }
  Status st = ctx.CommitInternal(block.number());
  if (!st.ok()) {
    BRDB_LOG(kError, config_.name) << st.ToString();
  }
}

void DatabaseNode::PrepareBlock(BlockWork* work) {
  const Block& block = work->block;
  const bool eop = config_.flow == TransactionFlow::kExecuteOrderParallel;
  work->t0 = RealClock::Shared()->NowMicros();

  // Stage 1 — batched signature verification: the block's transaction
  // signatures are independent, so they verify concurrently (executor pool
  // + this thread) before any execution starts, overlapping the previous
  // block's serial commit. Successes land in the verifier cache and make
  // the per-transaction Authenticate below skip the crypto; failures
  // simply fall through to the serial path, which reproduces the exact
  // error. Transactions verified at submission/forward time cost nothing.
  {
    std::vector<const Transaction*> to_verify;
    to_verify.reserve(block.transactions().size());
    for (const Transaction& tx : block.transactions()) {
      to_verify.push_back(&tx);
    }
    (void)verifier_->VerifyTransactions(*registry_, to_verify);
  }
  Micros s2 = RealClock::Shared()->NowMicros();
  work->verify_us = s2 - work->t0;

  if (!eop) {
    // OTE snapshot barrier: executions — and the pgledger rows below,
    // which OTE's CSN snapshots could otherwise observe early — must see
    // exactly the state committed by block-1. Only stage 1 overlaps the
    // previous commit in this flow; EOP snapshots are block-height-pinned
    // by the client, so stage 2 overlaps fully there.
    std::unique_lock<std::mutex> lock(blocks_mu_);
    height_cv_.wait(lock, [&] {
      return !running_.load() || committed_height_ >= block.number() - 1;
    });
    if (!running_.load()) {
      work->aborted = true;
      return;
    }
  }

  // Stage 2 — collect / start executions. A txid may legitimately already
  // be executing (EOP forwarding); anything not yet known is "missing" and
  // is started now (§3.4.3).
  std::set<std::string> seen_in_block;
  for (const Transaction& tx : block.transactions()) {
    if (!seen_in_block.insert(tx.id()).second) {
      // Same id twice within one block: only the first instance runs.
      auto dup = std::make_shared<ExecEntry>();
      dup->tx = tx;
      dup->exec_status =
          Status::AlreadyExists("duplicate transaction id within block");
      dup->done = true;
      work->entries.push_back(std::move(dup));
      continue;
    }
    bool known;
    {
      std::lock_guard<std::mutex> lock(exec_mu_);
      known = active_.count(tx.id()) > 0;
    }
    if (eop && !known) metrics_.OnMissingTxn();
    auto entry = StartExecution(tx, eop, block.number());
    if (eop && tx.snapshot_height() >= block.number()) {
      // The snapshot height can never be reached before this block
      // commits; abort deterministically on every node.
      {
        std::lock_guard<std::mutex> lock(blocks_mu_);
        entry->doomed_invalid = true;
      }
      height_cv_.notify_all();
    }
    work->entries.push_back(std::move(entry));
  }

  WriteLedgerRows(block, work->entries);
  work->prepare_us = RealClock::Shared()->NowMicros() - s2;
  {
    std::lock_guard<std::mutex> lock(blocks_mu_);
    executed_height_ = block.number();
  }
}

void DatabaseNode::CommitBlock(BlockWork* work) {
  if (work->aborted) return;  // shutdown interrupted the prepare stage
  const Block& block = work->block;
  const bool eop = config_.flow == TransactionFlow::kExecuteOrderParallel;
  // Snapshot the armed misbehavior policy once per block: a chaos event
  // flipping it mid-block would otherwise tear (e.g. skip the commit but
  // vote the honest hash).
  const ByzantinePolicy byz = byzantine_policy();
  std::vector<std::shared_ptr<ExecEntry>>& entries = work->entries;
  std::vector<TxnNotification> decided;
  // Stage-3 clock starts here, not at work->t0: under pipelining the
  // prepare stamp overlaps the previous block's commit (and ready-queue
  // wait), and summing overlapped spans would inflate bpt/su beyond wall
  // time. Block processing time = its own stage durations.
  Micros t0 = RealClock::Shared()->NowMicros();

  // Pipeline occupancy at commit entry: blocks prepared but not yet
  // committed (1 = serial behavior, > 1 = overlap actually happening).
  size_t occupancy;
  {
    std::lock_guard<std::mutex> lock(blocks_mu_);
    occupancy = static_cast<size_t>(executed_height_ - committed_height_);
  }

  // Local txn ids of the block in block order, for the block-aware rules.
  auto block_members = [&] {
    std::vector<TxnId> members;
    for (const auto& e : entries) {
      if (e->txn != nullptr) members.push_back(e->txn->id());
    }
    return members;
  };

  Micros exec_done_at = t0;
  Micros commit_us_total = 0;

  auto wait_done = [&](const std::shared_ptr<ExecEntry>& e) {
    std::unique_lock<std::mutex> lock(exec_mu_);
    exec_cv_.wait(lock, [&] { return e->done || !running_.load(); });
    if (!e->done) {
      // Stopping: the pipeline drains prepared blocks through this commit
      // stage. Every executor-task gate re-checks running_, so the task
      // finishes promptly (usually with an Unavailable abort); wait for it
      // so the entry's fields are stable and no phantom "committed"
      // decision is emitted for a transaction that never ran.
      exec_cv_.wait(lock, [&] { return e->done; });
    }
  };

  auto commit_entry = [&](const std::shared_ptr<ExecEntry>& e, int pos,
                          const std::vector<TxnId>& members) {
    Micros c0 = RealClock::Shared()->NowMicros();
    Status st = e->exec_status;
    bool skip = byz.skip_commit && pos + 1 == static_cast<int>(entries.size());
    if (st.ok() && eop && e->txn != nullptr && !skip &&
        contracts_.LastChangeBlock(e->tx.contract()) >
            e->tx.snapshot_height()) {
      // Contract-upgrade rule (EOP): the transaction executed the contract
      // version current at its snapshot height, but a later block (or an
      // earlier transaction of this block — ops apply in block order)
      // changed it. Deciding here, by comparing version stamps, is
      // independent of pipeline depth and apply timing — unlike the old
      // rule that doomed whatever happened to be in flight when the
      // registry op was applied.
      st = Status::SerializationFailure(
          "smart contract " + e->tx.contract() +
          " updated after snapshot height " +
          std::to_string(e->tx.snapshot_height()));
    }
    if (st.ok() && e->txn != nullptr && !skip) {
      st = e->txn->CommitSerially(
          eop ? SsiPolicy::kBlockAware : SsiPolicy::kAbortDuringCommit,
          block.number(), pos, members);
      // Partitioned-validation accounting: did this transaction stay inside
      // one partition group, and how long did the cross-partition conflict
      // merge take if not (both recorded by ValidateForCommit).
      const TxnInfo* info = e->txn->info();
      const uint64_t touched =
          info->touched_partitions.load(std::memory_order_relaxed);
      metrics_.OnTxnValidated((touched & (touched - 1)) != 0, info->merge_ns);
    } else if (e->txn != nullptr) {
      e->txn->Abort(st.ok() ? Status::Aborted("byzantine skip") : st);
      if (skip && st.ok()) st = Status::Aborted("byzantine skip");
    }
    e->exec_status = st;
    commit_us_total += RealClock::Shared()->NowMicros() - c0;
    if (st.ok()) {
      metrics_.OnTxnCommitted();
      if (column_store_ != nullptr && e->txn != nullptr) {
        // Mirror the committed write set into the columnar event tail.
        // commit_entry runs serially in block order, so events arrive with
        // nondecreasing block stamps — the invariant the store's tail
        // relies on. System/private tables stay row-store only.
        for (const WriteRecord& w : e->txn->info()->writes) {
          Table* t = db_.GetTableById(w.table);
          if (t == nullptr || t->db_schema() != kBlockchainSchema) {
            continue;
          }
          if (w.kind != WriteRecord::Kind::kDelete) {
            column_store_->OnInsert(t, w.new_row, block.number());
          }
          if (w.kind != WriteRecord::Kind::kInsert) {
            column_store_->OnDelete(t, w.base_row, block.number());
          }
        }
      }
      // Registry changes take effect only now that the transaction
      // committed, stamped with this block so executions resolve contract
      // versions by height (§3.7). In-flight transactions that executed an
      // older version abort deterministically at their own commit slot
      // (EOP: the LastChangeBlock rule above; OTE: they resolve at their
      // block's height, so they never see a stale version at all).
      for (const RegistryOp& op : e->registry_ops) {
        Status applied = contracts_.Apply(op, block.number());
        if (!applied.ok()) {
          BRDB_LOG(kWarn, config_.name)
              << "registry op failed: " << applied.ToString();
        }
      }
    } else {
      metrics_.OnTxnAborted();
    }
    decided.push_back(TxnNotification{e->tx.id(), st, block.number()});
    {
      std::lock_guard<std::mutex> lock(exec_mu_);
      active_.erase(e->tx.id());
    }
  };

  if (config_.serial_execution) {
    // Ethereum-style baseline (§5.1): execute and commit one at a time.
    std::vector<TxnId> members;
    for (size_t i = 0; i < entries.size(); ++i) {
      wait_done(entries[i]);
      if (entries[i]->txn != nullptr) members.push_back(entries[i]->txn->id());
      commit_entry(entries[i], static_cast<int>(i), members);
    }
    exec_done_at = RealClock::Shared()->NowMicros();
  } else {
    // Execution phase barrier: every transaction of the block must be
    // ready to commit/abort before the first commit (§3.3.2 step 4).
    for (const auto& e : entries) wait_done(e);
    exec_done_at = RealClock::Shared()->NowMicros();

    std::vector<TxnId> members = block_members();
    for (size_t i = 0; i < entries.size(); ++i) {
      commit_entry(entries[i], static_cast<int>(i), members);
    }
  }

  // Checkpointing phase (§3.3.4): hash of the block's write-set.
  std::vector<std::string> write_sets;
  for (const auto& e : entries) {
    if (e->exec_status.ok() && e->txn != nullptr) {
      write_sets.push_back(e->txn->EncodeWriteSet());
    }
  }
  std::string ws_hash =
      CheckpointManager::ComputeWriteSetHash(block.number(), write_sets);
  // RecordLocal always keeps the honestly computed hash: a
  // divergent-writeset liar lies in its *vote*, not to itself, so it does
  // not spuriously flag honest peers — but every honest peer flags it.
  bool vote_due = checkpoints_.RecordLocal(block.number(), ws_hash);
  if (vote_due && !byz.withhold_votes &&
      !block.transactions().empty()) {
    std::string vote_hash = ws_hash;
    if (byz.divergent_writeset) {
      std::vector<std::string> tampered = write_sets;
      tampered.push_back("byzantine-divergent-writeset");
      vote_hash =
          CheckpointManager::ComputeWriteSetHash(block.number(), tampered);
    }
    CheckpointVote vote;
    vote.peer = config_.name;
    vote.block = block.number();
    vote.write_set_hash = vote_hash;
    vote.signature = identity_.Sign(vote.SignedPayload());
    ordering_->SubmitCheckpointVote(vote);
  }
  // Compare other peers' hashes that rode in this block.
  for (const CheckpointVote& vote : block.checkpoint_votes()) {
    if (vote.peer == config_.name) continue;
    if (!registry_->VerifySignature(vote.peer, vote.SignedPayload(),
                                    vote.signature)
             .ok()) {
      continue;  // forged vote; ignore
    }
    auto divergence = checkpoints_.ObserveVote(vote);
    if (divergence.has_value()) {
      BRDB_LOG(kWarn, config_.name)
          << "checkpoint divergence: peer " << divergence->peer
          << " reported a different write-set hash for block "
          << divergence->block;
    }
  }

  UpdateLedgerStatuses(block, entries);

  Micros now = RealClock::Shared()->NowMicros();
  Micros stage12_us = work->verify_us + work->prepare_us;
  metrics_.OnBlockProcessed(stage12_us + (now - t0),
                            stage12_us + (exec_done_at - t0),
                            commit_us_total);
  metrics_.OnPipelineBlock(work->verify_us, work->prepare_us,
                           commit_us_total, occupancy);
  db_.txn_manager()->GarbageCollect();

  // Durable state checkpoint (crash recovery): pin the catalog here on the
  // commit thread — no later block can be committing concurrently — and
  // serialize + write on the executor pool.
  MaybeWriteStateCheckpoint(block, ws_hash);

  if (history_ != nullptr) {
    // All of this block's row events are in the store; queries pinned at
    // any height <= block.number() are now fully answerable. Must precede
    // the committed-height publication below, which is what query pinning
    // reads.
    history_->NotifyCommitted(block.number());
    metrics_.SetColumnarProgress(column_store_->segments_sealed(),
                                 history_->lag());
  }

  // Publish the committed height *before* notifying: a client reacting to
  // its commit must never submit against the pre-block snapshot height.
  {
    std::lock_guard<std::mutex> lock(blocks_mu_);
    committed_height_ = block.number();
  }
  height_cv_.notify_all();
  blocks_cv_.notify_all();
  for (const TxnNotification& n : decided) {
    Notify(n.txid, n.status, n.block);
  }
}

void DatabaseNode::MaybeWriteStateCheckpoint(const Block& block,
                                             const std::string& ws_hash) {
  if (checkpoint_writer_ == nullptr ||
      block.number() % config_.state_checkpoint_interval != 0) {
    return;
  }
  if (capture_inflight_.exchange(true)) {
    // A previous capture is still serializing; skip this interval rather
    // than queue up unbounded captures — the next one covers this state.
    BRDB_LOG(kWarn, config_.name)
        << "state checkpoint at block " << block.number()
        << " skipped: previous capture still in flight";
    return;
  }
  auto pinned = std::make_shared<CheckpointWriter::PinnedState>(
      CheckpointWriter::Pin(&db_, block.number(), block.hash(), ws_hash));
  executors_->Submit([this, pinned] {
    // The checkpoint must never claim state the block log cannot back:
    // force the log durable through the pinned height first (matters for
    // kBatch/kOff policies; a no-op under kAlways).
    Status st = block_store_->Sync();
    if (st.ok()) st = checkpoint_writer_->Write(&db_, *pinned);
    if (st.ok()) {
      metrics_.OnStateCheckpointWritten();
    } else {
      BRDB_LOG(kError, config_.name)
          << "state checkpoint at block " << pinned->height
          << " failed: " << st.ToString();
    }
    capture_inflight_.store(false);
  });
}

namespace {

/// Cheap pre-parse gate for the client read paths: they accept only
/// SELECT, so rejected DML/DDL text must not occupy a slot in the shared
/// plan cache (a client could otherwise flush the contract-body plans the
/// cache keeps hot). Anything passing the gate that still fails to parse
/// is not cached either (parse failures never are).
bool LooksLikeSelect(const std::string& sql) {
  static const char kSelect[] = "select";
  size_t i = sql.find_first_not_of(" \t\r\n");
  if (i == std::string::npos || sql.size() - i < 6) return false;
  for (size_t j = 0; j < 6; ++j) {
    if (std::tolower(static_cast<unsigned char>(sql[i + j])) != kSelect[j]) {
      return false;
    }
  }
  return true;
}

}  // namespace

Status DatabaseNode::CheckQueryUser(const std::string& user) {
  auto key = registry_->PublicKeyOf(user);
  if (key.ok()) return Status::OK();
  // Also accept users onboarded on-chain.
  TxnContext probe(&db_,
                   db_.txn_manager()->BeginAtCurrentCsn(),
                   TxnMode::kInternal);
  auto r = engine_.Execute(&probe,
                           "SELECT COUNT(*) FROM pgcerts WHERE "
                           "username = $1",
                           {Value::Text(user)});
  if (!r.ok() || !r.value().Scalar().ok() ||
      r.value().Scalar().value().AsInt() == 0) {
    return Status::PermissionDenied("unknown user " + user);
  }
  return Status::OK();
}

/// True when every table a SELECT references is a blockchain-schema table —
/// the precondition for running it at a pinned block-height snapshot
/// (system/private rows carry creator_block 0 and would vanish under the
/// block-stamp visibility filter). Unresolvable names return false; the
/// row path reports the error identically.
bool DatabaseNode::AllBlockchainTables(const sql::SelectStmt& select) {
  auto is_blockchain = [&](const std::string& name) {
    auto t = db_.GetTable(name);
    return t.ok() && t.value()->db_schema() == kBlockchainSchema;
  };
  if (!select.from.has_value() || !is_blockchain(select.from->table)) {
    return false;
  }
  for (const auto& j : select.joins) {
    if (!is_blockchain(j.table.table)) return false;
  }
  return true;
}

Result<sql::ResultSet> DatabaseNode::Query(const std::string& user,
                                           const std::string& sql_text,
                                           const std::vector<Value>& params,
                                           QueryPath path) {
  BRDB_RETURN_NOT_OK(CheckQueryUser(user));
  if (!LooksLikeSelect(sql_text)) {
    return Status::PermissionDenied(
        "only individual SELECT statements may bypass the transaction flow "
        "(paper §3.7)");
  }
  auto plan = engine_.Prepare(sql_text);
  if (!plan.ok()) return plan.status();
  if (plan.value()->info().type != sql::StatementType::kSelect) {
    return Status::PermissionDenied(
        "only individual SELECT statements may bypass the transaction flow "
        "(paper §3.7)");
  }
  // Analytics-eligible SELECTs pin a block-height snapshot — kForceRow
  // included, so a parity comparison of the two paths reads the exact same
  // snapshot. Everything else keeps the legacy CSN read of the latest
  // committed state.
  const bool pinnable =
      history_ != nullptr && plan.value()->columnar_shape_ok() &&
      AllBlockchainTables(*plan.value()->statement().select);
  sql::ExecOptions opts;
  TxnContext ctx(&db_,
                 pinnable
                     ? db_.txn_manager()->Begin(Snapshot::AtBlockHeight(
                           Height()))
                     : db_.txn_manager()->BeginAtCurrentCsn(),
                 TxnMode::kInternal);
  if (pinnable && path == QueryPath::kDefault) {
    opts.columnar.enabled = true;
    opts.columnar.store = column_store_.get();
    opts.columnar.vectorized_scans = metrics_.vectorized_scans_cell();
    opts.columnar.row_fallback_scans = metrics_.row_fallback_scans_cell();
    opts.columnar.zone_map_pruned = metrics_.zone_map_pruned_cell();
  }
  auto result = engine_.ExecutePrepared(&ctx, *plan.value(), params, opts);
  if (result.ok() && byzantine_policy().tamper_reads) {
    // Byzantine tamper-reads mode (§3.5): corrupt every value handed to
    // the client. Detected client-side by cross-peer result comparison —
    // reads bypass consensus, so only redundancy can catch a lying peer.
    sql::ResultSet tampered = std::move(result).value();
    for (Row& row : tampered.rows) {
      for (Value& v : row) {
        if (v.type() == ValueType::kInt) {
          v = Value::Int(v.AsInt() + 1);
        } else if (v.type() == ValueType::kText) {
          v = Value::Text(v.AsText() + "\xE2\x88\x85");  // poisoned marker
        }
      }
    }
    return tampered;
  }
  return result;
}

Result<sql::PreparedInfo> DatabaseNode::PrepareQuery(const std::string& user,
                                                     const std::string& sql) {
  BRDB_RETURN_NOT_OK(CheckQueryUser(user));
  if (!LooksLikeSelect(sql)) {
    return Status::PermissionDenied(
        "only SELECT statements may be prepared by clients (paper §3.7)");
  }
  auto plan = engine_.Prepare(sql);
  if (!plan.ok()) return plan.status();
  if (plan.value()->info().type != sql::StatementType::kSelect) {
    return Status::PermissionDenied(
        "only SELECT statements may be prepared by clients (paper §3.7)");
  }
  return plan.value()->info();
}

Result<sql::ResultSet> DatabaseNode::LocalExecute(
    const std::string& user, const std::string& sql_text,
    const std::vector<Value>& params) {
  auto key = registry_->PublicKeyOf(user);
  if (!key.ok()) return Status::PermissionDenied("unknown user " + user);
  auto stmt = sql::Parse(sql_text);
  if (!stmt.ok()) return stmt.status();

  auto table_is_private = [&](const std::string& name) -> Status {
    auto t = db_.GetTable(name);
    if (!t.ok()) return t.status();
    if (t.value()->db_schema() != kPrivateSchema) {
      return Status::PermissionDenied(
          "table " + name + " is not in the private schema; blockchain "
          "tables change only through smart contracts (§3.7)");
    }
    return Status::OK();
  };
  switch (stmt.value().type) {
    case sql::StatementType::kInsert:
      BRDB_RETURN_NOT_OK(table_is_private(stmt.value().insert->table));
      break;
    case sql::StatementType::kUpdate:
      BRDB_RETURN_NOT_OK(table_is_private(stmt.value().update->table));
      break;
    case sql::StatementType::kDelete:
      BRDB_RETURN_NOT_OK(table_is_private(stmt.value().del->table));
      break;
    case sql::StatementType::kDropTable:
      BRDB_RETURN_NOT_OK(table_is_private(stmt.value().drop_table->table));
      break;
    case sql::StatementType::kCreateIndex:
      BRDB_RETURN_NOT_OK(table_is_private(stmt.value().create_index->table));
      break;
    case sql::StatementType::kCreateTable: {
      // Create directly in the private schema.
      std::vector<ColumnDef> cols;
      for (const auto& c : stmt.value().create_table->columns) {
        ColumnDef def;
        def.name = c.name;
        def.type = c.type;
        def.not_null = c.not_null;
        def.primary_key = c.primary_key;
        def.unique = c.unique;
        cols.push_back(std::move(def));
      }
      TableSchema schema(stmt.value().create_table->table, std::move(cols));
      for (const auto& check : stmt.value().create_table->check_exprs) {
        schema.AddCheckConstraint(check);
      }
      if (!stmt.value().create_table->partition_column.empty()) {
        int pc =
            schema.ColumnIndex(stmt.value().create_table->partition_column);
        if (pc < 0) {
          return Status::InvalidArgument(
              "PARTITION BY column " +
              stmt.value().create_table->partition_column +
              " is not a column of " + stmt.value().create_table->table);
        }
        schema.SetPartitionColumn(pc);
      }
      auto t = db_.CreateTable(std::move(schema), kPrivateSchema);
      if (!t.ok()) return t.status();
      return sql::ResultSet{};
    }
    case sql::StatementType::kSelect:
      break;  // reads may combine private and blockchain tables
  }

  // Private DML commits through CommitInternal, whose only UNIQUE/PK check
  // is the write-time one against the latest committed state. Holding one
  // lock from execution through commit makes that check sufficient: no
  // other private write can be in flight between them. The lock is taken
  // before the context exists, so a failed statement's abort (the context
  // destructor) also happens under it.
  const bool writes = stmt.value().type != sql::StatementType::kSelect;
  std::unique_lock<std::mutex> private_lock(private_dml_mu_, std::defer_lock);
  if (writes) private_lock.lock();
  TxnContext ctx(&db_,
                 db_.txn_manager()->BeginAtCurrentCsn(),
                 TxnMode::kInternal);
  sql::ExecOptions opts;
  auto r = engine_.ExecuteStatement(&ctx, stmt.value(), params, opts);
  if (!r.ok()) return r.status();
  if (writes) {
    BlockNum h;
    {
      std::lock_guard<std::mutex> lock(blocks_mu_);
      h = committed_height_;
    }
    BRDB_RETURN_NOT_OK(ctx.CommitInternal(h));
  }
  return r;
}

size_t DatabaseNode::Vacuum(BlockNum horizon_block) {
  size_t removed = 0;
  TxnManager* mgr = db_.txn_manager();
  for (const std::string& name : db_.TableNames()) {
    auto t = db_.GetTable(name);
    if (!t.ok()) continue;
    removed += t.value()->Vacuum(horizon_block, [mgr](TxnId id) {
      return mgr->IsAborted(id);
    });
  }
  return removed;
}

Result<sql::ResultSet> DatabaseNode::ProvenanceQuery(
    const std::string& user, const std::string& sql_text,
    const std::vector<Value>& params) {
  auto key = registry_->PublicKeyOf(user);
  if (!key.ok()) return Status::PermissionDenied("unknown user " + user);
  if (!LooksLikeSelect(sql_text)) {
    return Status::PermissionDenied("provenance queries are read-only");
  }
  auto plan = engine_.Prepare(sql_text);
  if (!plan.ok()) return plan.status();
  if (plan.value()->info().type != sql::StatementType::kSelect) {
    return Status::PermissionDenied("provenance queries are read-only");
  }
  TxnContext ctx(&db_,
                 db_.txn_manager()->BeginAtCurrentCsn(),
                 TxnMode::kProvenance);
  sql::ExecOptions opts;
  return engine_.ExecutePrepared(&ctx, *plan.value(), params, opts);
}

}  // namespace brdb
