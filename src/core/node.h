// DatabaseNode: one organization's database peer (the modified PostgreSQL
// instance of the paper, §4). It owns the storage engine, SQL engine,
// contract registry, block store, checkpoint manager and the block
// processor implementing both transaction flows:
//
//   order-then-execute (§3.3): blocks arrive from ordering; all
//   transactions of a block execute concurrently on the state committed by
//   the previous block (CSN snapshot); the block processor then signals
//   each backend serially in block order to validate (abort-during-commit
//   SSI) and commit.
//
//   execute-order-in-parallel (§3.4): clients submit to a peer, which
//   authenticates, forwards to other peers and the ordering service, and
//   starts execution immediately at the client-specified snapshot height
//   (block-height SSI). When the block arrives, missing transactions are
//   started, execution completion is awaited, and the serial commit runs
//   the block-aware abort rules of Table 2.
//
// Both flows then update the pgledger statuses atomically, compute the
// block's write-set hash, and take part in checkpointing (§3.3.4).
//
// Block processing is staged through a BlockPipeline
// (core/block_pipeline.h): verification and execution of block N+1 may
// overlap block N's serial commit up to a bounded in-flight window
// (NodeConfig::pipeline_depth), while commits, registry ops and decision
// notifications remain strictly block-ordered.
#ifndef BRDB_CORE_NODE_H_
#define BRDB_CORE_NODE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <memory>
#include <random>
#include <thread>

#include "common/thread_pool.h"
#include "consensus/ordering_service.h"
#include "contracts/contract.h"
#include "contracts/system_contracts.h"
#include "core/block_pipeline.h"
#include "core/metrics.h"
#include "crypto/sig_verifier.h"
#include "ledger/block_store.h"
#include "ledger/checkpoint.h"
#include "ledger/checkpoint_writer.h"
#include "ledger/fault_injector.h"
#include "ledger/history_builder.h"
#include "network/chaos.h"
#include "network/sim_network.h"
#include "sql/executor.h"
#include "storage/database.h"
#include "txn/txn_context.h"

namespace brdb {

inline constexpr const char* kMsgForwardTx = "fwd_tx";

enum class TransactionFlow {
  kOrderThenExecute,
  kExecuteOrderParallel,
};

/// Blocks between checkpoint votes (§3.3.4): every node records and votes
/// on its write-set hash after every block.
inline constexpr size_t kCheckpointInterval = 1;

/// The one place a node knob lives. BlockchainNetwork and NodeProcess each
/// embed a NodeConfig template and stamp the per-node fields onto a copy.
/// The DatabaseNode constructor resolves it once (environment overrides
/// and defaults); config() then holds concrete values only.
struct NodeConfig {
  std::string name;  ///< unique peer name, e.g. "peer-org1"
  std::string org;
  TransactionFlow flow = TransactionFlow::kOrderThenExecute;
  size_t executor_threads = 8;

  /// Max blocks in flight in the block pipeline: block N+1's signature
  /// verification and execution overlap block N's serial commit while
  /// commits and notifications stay strictly block-ordered. 0 = default
  /// ($BRDB_PIPELINE_DEPTH if set, else 2); 1 = the exact legacy serial
  /// verify -> execute -> commit loop, kept as the benchmark baseline.
  size_t pipeline_depth = 0;

  /// Capacity of the signature verifier's FIFO-bounded verified cache
  /// (0 = default 65536). Tests shrink it to exercise eviction + replay.
  size_t sig_cache_capacity = 0;

  /// "" = in-memory block store. A file-backed store fsyncs every append
  /// and also holds the state checkpoints and the sealed columnar segments
  /// (<block_store_path>/columnar).
  std::string block_store_path;

  /// Write a durable state checkpoint every N committed blocks
  /// (0 = disabled). Restart restores the newest valid checkpoint and
  /// replays only the block suffix instead of the whole chain. Requires a
  /// file-backed block store.
  size_t state_checkpoint_interval = 0;

  /// Block-store crash injection (tests only; must outlive the node).
  FaultInjector* fault_injector = nullptr;

  /// Initial misbehavior policy (network/chaos.h). Runtime-armable too:
  /// a ChaosRunner can flip the policy mid-run via SetByzantinePolicy.
  ByzantinePolicy byzantine;

  /// Network chaos injector (must outlive the node). Used for the pure
  /// EndpointDown() check gating the paths that bypass SimNetwork: the
  /// §3.6 catch-up RPC and EOP direct ordering submission.
  NetworkFaultInjector* chaos = nullptr;

  /// Serial execution baseline (§5.1 "Comparison with Ethereum"): execute
  /// and commit transactions one at a time instead of concurrently.
  bool serial_execution = false;

  /// Columnar ledger history (storage/columnar.h): a background builder
  /// consumes the commit stream and seals immutable per-table columnar
  /// segments of this many blocks (0 = default 16); client SELECTs
  /// touching only blockchain tables run on the vectorized analytics path
  /// at a pinned block-height snapshot, with results byte-identical to
  /// the row store (QueryPath::kForceRow).
  size_t analytics_segment_blocks = 0;
};

/// Which execution path Query() takes for an analytics-eligible SELECT.
enum class QueryPath {
  kDefault,   ///< columnar when eligible, row store otherwise
  kForceRow,  ///< row-store execution at the same pinned snapshot
              ///< (parity baseline for tests and benchmarks)
};

/// Final status of a transaction on this node, delivered to subscribers.
struct TxnNotification {
  std::string txid;
  Status status;
  BlockNum block = 0;
};

/// Execution bookkeeping for one in-flight transaction. Defined at
/// namespace level (BlockWork carries shared_ptrs between the pipeline's
/// prepare and commit stages) but owned and mutated by DatabaseNode.
struct ExecEntry {
  Transaction tx;
  std::unique_ptr<TxnContext> txn;
  Status exec_status;
  std::vector<RegistryOp> registry_ops;
  Micros exec_us = 0;
  bool done = false;       ///< execution finished (ready to commit/abort)
  bool doomed_invalid = false;
  /// Block that will commit this entry. 0 until a block's prepare stage
  /// claims it (EOP submissions execute unclaimed until their block
  /// arrives); a txid reappearing in a later block while the claiming
  /// block is still in flight is a duplicate. Guarded by the node's
  /// exec_mu_.
  BlockNum claimed_by_block = 0;
  /// Block whose prepare stage started this execution (0 = client
  /// submission / peer-forward path).
  BlockNum started_by_block = 0;
  /// Authentication was not decidable at prepare time (the user is not in
  /// the immutable bootstrap registry, and pgcerts may change until
  /// block-1 commits): the executor task authenticates in full after that
  /// height — the exact point the legacy serial loop authenticated at.
  bool auth_retry = false;
  PrincipalRole role = PrincipalRole::kClient;
};

class DatabaseNode {
 public:
  DatabaseNode(NodeConfig config, Identity identity,
               std::shared_ptr<CertificateRegistry> registry, SimNetwork* net,
               OrderingService* ordering);
  ~DatabaseNode();

  DatabaseNode(const DatabaseNode&) = delete;
  DatabaseNode& operator=(const DatabaseNode&) = delete;

  /// Register network endpoints, replay any persisted blocks (recovery,
  /// §3.6), and start the block processor.
  Status Start();
  void Stop();

  const std::string& name() const { return config_.name; }
  const std::string& endpoint() const { return endpoint_; }
  const NodeConfig& config() const { return config_; }
  bool running() const { return running_.load(); }

  Database* db() { return &db_; }
  sql::SqlEngine* sql_engine() { return &engine_; }
  ContractRegistry* contracts() { return &contracts_; }
  BlockStore* block_store() { return block_store_.get(); }
  CheckpointManager* checkpoints() { return &checkpoints_; }
  NodeMetrics* metrics() { return &metrics_; }
  ColumnStore* column_store() { return column_store_.get(); }
  HistoryBuilder* history_builder() { return history_.get(); }

  /// Committed block height (blocks whose serial commit finished).
  BlockNum Height() const;

  /// Pipeline frontier: blocks whose prepare stage (signature verification
  /// + execution start + ledger rows) finished. >= Height() when the block
  /// pipeline runs ahead of the serial commit; == Height() at depth 1.
  BlockNum ExecutedHeight() const;

  /// Resolved pipeline depth (config > $BRDB_PIPELINE_DEPTH > default 2).
  size_t pipeline_depth() const { return config_.pipeline_depth; }

  /// Always 1: every node runs one SSI layout. Kept because the benchmark
  /// harness reports it.
  size_t partitions() const { return 1; }

  /// Other peers' endpoints (for EOP forwarding).
  void SetPeerEndpoints(std::vector<std::string> endpoints);

  /// Seed identity records (pgcerts) before the network starts — the
  /// §3.7 bootstrap step. Must be called identically on every node.
  Status SeedCertificate(const Identity& identity);

  /// Client entry point for execute-order-in-parallel: authenticate,
  /// forward to peers + ordering, execute locally (§3.4.1).
  Status SubmitTransaction(const Transaction& tx);

  /// Read-only query on this node (individual SELECT, not recorded on the
  /// chain, §3.7). `user` must be a registered identity.
  Result<sql::ResultSet> Query(const std::string& user, const std::string& sql,
                               const std::vector<Value>& params = {},
                               QueryPath path = QueryPath::kDefault);

  /// Provenance query: sees all committed row versions and the
  /// xmin/xmax/creator/deleter pseudo-columns (§4.2).
  Result<sql::ResultSet> ProvenanceQuery(const std::string& user,
                                         const std::string& sql,
                                         const std::vector<Value>& params = {});

  /// Prepare a read-only statement for `user`: parse + analyze through the
  /// SQL engine's plan cache and return the parameter metadata a client
  /// session binds against. Only SELECT statements may be prepared — the
  /// same restriction Query() enforces at execution (§3.7).
  Result<sql::PreparedInfo> PrepareQuery(const std::string& user,
                                         const std::string& sql);

  /// Non-blockchain ("private") schema (§3.7): organization-local tables on
  /// this node only, outside consensus. DDL creates tables in the private
  /// schema; DML may only touch private tables; SELECTs may freely combine
  /// private and blockchain tables (the paper's report/analytics use case).
  Result<sql::ResultSet> LocalExecute(const std::string& user,
                                      const std::string& sql,
                                      const std::vector<Value>& params = {});

  /// Prune row versions no longer visible to any snapshot at or above
  /// `horizon_block` (the paper's §7 vacuum extension). Destroys provenance
  /// for pruned history; returns the number of versions removed.
  size_t Vacuum(BlockNum horizon_block);

  using NotificationFn = std::function<void(const TxnNotification&)>;
  using SubscriptionId = uint64_t;

  /// Register a decision listener. The returned id unsubscribes it —
  /// sessions come and go, unlike the node-lifetime clients of the old
  /// API. Unsubscribe synchronizes with delivery: after it returns, the
  /// callback is not running and never will again. Callbacks must be quick
  /// and must not call Subscribe/Unsubscribe.
  SubscriptionId Subscribe(NotificationFn fn);
  void Unsubscribe(SubscriptionId id);

  /// Number of blocks whose write-set hash matched this node's for the
  /// given block (checkpoint agreement).
  size_t CheckpointMatches(BlockNum block) const {
    return checkpoints_.MatchCount(block);
  }

  /// Arm/clear this node's misbehavior policy at runtime (chaos events).
  /// Takes effect on the next committed block / query — no restart.
  void SetByzantinePolicy(const ByzantinePolicy& policy) {
    byz_mask_.store(policy.ToMask());
  }
  ByzantinePolicy byzantine_policy() const {
    return ByzantinePolicy::FromMask(byz_mask_.load());
  }

 private:
  void OnNetMessage(const NetMessage& m);
  void EnqueueBlock(Block block);

  /// Startup recovery: restore the newest durable checkpoint whose block
  /// hash matches the local block store. Returns the restored height (the
  /// pipeline then replays only blocks height+1..tip) or 0 for a genesis
  /// replay. On any failure the database is reset to pristine (system
  /// tables + bootstrap certificates) and an older checkpoint is tried.
  BlockNum TryRestoreFromCheckpoint();

  /// Re-apply deployed smart contracts from the restored pgdeploy table
  /// (in deploy_id order) — with a checkpoint restore the blocks that
  /// carried the deployments are not replayed, so the in-memory registry
  /// must be rebuilt from the table.
  void RebuildContractsFromDeployments();

  /// After block `number` commits: if it falls on the state-checkpoint
  /// interval, pin the catalog on this (commit) thread and hand the heavy
  /// serialization + atomic file write to the executor pool. At most one
  /// capture runs at a time; an interval landing while one is in flight is
  /// skipped (the next interval covers it).
  void MaybeWriteStateCheckpoint(const Block& block,
                                 const std::string& write_set_root);

  /// Move the in-sequence prefix of pending_blocks_ into the durable
  /// store. A failed append keeps the block pending (counted in metrics)
  /// and is retried on the next enqueue or fetch round. Requires blocks_mu_.
  void DrainPendingLocked();

  // ---- BlockPipeline stage hooks (core/block_pipeline.h) ----

  /// Fetch block `n` from the store, triggering the §3.6 gap/catch-up
  /// retransmission logic when it is missing. When it has nothing, it
  /// waits for an enqueue, Stop, the append retry or the catch-up probe.
  bool FetchBlock(BlockNum n, Block* out);

  /// Stages 1+2: batch signature verification, execution start (claiming
  /// already-executing EOP entries), pgledger row writes. Runs on the
  /// pipeline's prepare thread, in block order. In order-then-execute
  /// mode stage 2 waits for block n-1's commit first — OTE snapshots are
  /// "the state committed by the previous block", so only stage 1 can
  /// overlap; EOP snapshots are block-height-pinned by the client and
  /// stage 2 overlaps fully.
  void PrepareBlock(BlockWork* work);

  /// Stage 3: execution barrier, serial block-order commit, registry ops,
  /// checkpointing, pgledger status updates, committed-height publication
  /// and decision notifications. The height is advanced *before* the
  /// notifications so a client reacting to its commit never submits
  /// against the pre-block snapshot height.
  void CommitBlock(BlockWork* work);

  /// Authenticate a transaction: registry first, then the pgcerts table
  /// (covering users added on-chain via create_user). With
  /// `skip_signature` the crypto is skipped (the verifier cache already
  /// vouched for this txid) and only the principal's role is resolved.
  /// With `allow_pgcerts_fallback` false, only the immutable bootstrap
  /// registry is consulted — the pipeline's prepare stage uses this so a
  /// block's authentication never reads pgcerts state an in-flight
  /// earlier block may still change.
  Status Authenticate(const Transaction& tx, PrincipalRole* role_out,
                      bool skip_signature = false,
                      bool allow_pgcerts_fallback = true);

  /// The pgcerts insert behind SeedCertificate (also used to re-seed a
  /// pristine database after an abandoned checkpoint restore).
  Status SeedCertificateRow(const Identity& identity);

  /// True if this txid is already recorded in pgledger or executing.
  bool IsDuplicate(const std::string& txid);

  /// Query-path user check: bootstrap registry first, then pgcerts.
  Status CheckQueryUser(const std::string& user);

  /// True when every table a SELECT references is in the blockchain
  /// schema — the precondition for pinning a block-height snapshot.
  bool AllBlockchainTables(const sql::SelectStmt& select);

  /// Start concurrent execution of a transaction; returns the entry.
  /// `started_by_block` is the block whose prepare stage requested it
  /// (0 = client submission / peer forward). Block-started entries whose
  /// authentication cannot be decided yet (pgcerts may change until
  /// block-1 commits) defer it to the executor task; a txid already
  /// claimed by an earlier in-flight block yields a fresh duplicate-abort
  /// entry.
  std::shared_ptr<ExecEntry> StartExecution(const Transaction& tx,
                                            bool eop_mode,
                                            BlockNum started_by_block = 0);

  /// An EOP execution waiting for its snapshot height to commit.
  struct ParkedExecution {
    std::shared_ptr<ExecEntry> entry;
    std::function<void()> run;
  };
  /// Hand parked executions to the executor pool.
  void RunParked(std::vector<ParkedExecution> parked);

  void WriteLedgerRows(const Block& block,
                       const std::vector<std::shared_ptr<ExecEntry>>& entries);
  void UpdateLedgerStatuses(
      const Block& block,
      const std::vector<std::shared_ptr<ExecEntry>>& entries);

  void Notify(const std::string& txid, const Status& status, BlockNum block);

  sql::ExecOptions FlowOptions() const;

  NodeConfig config_;  ///< resolved once by the constructor
  Identity identity_;
  std::shared_ptr<CertificateRegistry> registry_;
  SimNetwork* net_;
  OrderingService* ordering_;
  std::string endpoint_;

  Database db_;
  sql::SqlEngine engine_;
  ContractRegistry contracts_;
  std::unique_ptr<BlockStore> block_store_;
  std::unique_ptr<CheckpointWriter> checkpoint_writer_;  // null = disabled
  /// Columnar ledger history (null before Start). The store is rebuilt
  /// from the row store's arenas on every Start() so a restart (crash
  /// recovery, checkpoint restore) never double-feeds events.
  std::unique_ptr<ColumnStore> column_store_;
  std::unique_ptr<HistoryBuilder> history_;
  std::atomic<bool> capture_inflight_{false};
  /// Identities seeded before Start (SeedCertificate); replayed into a
  /// pristine database when a checkpoint restore has to be abandoned.
  std::vector<Identity> seeded_identities_;
  CheckpointManager checkpoints_;
  NodeMetrics metrics_;
  std::unique_ptr<ThreadPool> executors_;
  std::unique_ptr<SignatureVerifier> verifier_;

  std::vector<std::string> peer_endpoints_;

  // Block intake: blocks may arrive out of order; the pipeline's prepare
  // stage consumes them strictly sequentially.
  mutable std::mutex blocks_mu_;
  std::condition_variable blocks_cv_;
  std::map<BlockNum, Block> pending_blocks_;
  /// Serial commit finished (stage 3). Written under blocks_mu_ (the
  /// height waits' condition); Height() reads it without the lock, which
  /// the block append holds across its fsync.
  std::atomic<BlockNum> committed_height_{0};
  BlockNum executed_height_ = 0;   ///< prepare stage finished (stages 1+2)
  std::condition_variable height_cv_;
  /// EOP executions whose snapshot height has not committed, keyed by
  /// that height (guarded by blocks_mu_). They wait here rather than on an
  /// executor thread: a pool full of executions waiting for a height only
  /// later commits reach would starve the executions those commits need.
  /// CommitBlock releases them, a doom or Stop releases them early.
  std::multimap<BlockNum, ParkedExecution> parked_;
  /// Blocks EnqueueBlock accepted (guarded by blocks_mu_): FetchBlock
  /// sleeps until this moves.
  uint64_t blocks_enqueued_ = 0;
  /// §3.6 catch-up: with no gap in sight, FetchBlock probes ordering for
  /// the next block once this passes (prepare-thread only).
  static constexpr std::chrono::milliseconds kCatchUpInterval{100};
  std::chrono::steady_clock::time_point next_catch_up_{};
  uint64_t fetch_fail_streak_ = 0;  ///< prepare-thread only (log rate cap)

  // Append-retry backoff (DrainPendingLocked; guarded by blocks_mu_).
  uint64_t append_fail_streak_ = 0;
  std::chrono::steady_clock::time_point next_append_retry_{};
  std::minstd_rand backoff_rng_;  ///< jitter; seeded from the node name

  // Active executions by global txid.
  std::mutex exec_mu_;
  std::condition_variable exec_cv_;
  std::map<std::string, std::shared_ptr<ExecEntry>> active_;

  /// Serializes private-schema writes (LocalExecute) from execution
  /// through CommitInternal.
  std::mutex private_dml_mu_;

  std::mutex subs_mu_;
  SubscriptionId next_sub_id_ = 1;
  std::map<SubscriptionId, NotificationFn> subscribers_;

  std::atomic<bool> running_{false};
  /// Armed ByzantinePolicy bitmask; read lock-free on the commit path.
  std::atomic<uint32_t> byz_mask_{0};
  std::unique_ptr<BlockPipeline> pipeline_;
};

}  // namespace brdb

#endif  // BRDB_CORE_NODE_H_
