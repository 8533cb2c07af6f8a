// Figure 5(a): throughput and latency vs transaction arrival rate for the
// order-then-execute flow with the simple contract, across block sizes.
// Paper: throughput rises linearly to a peak (~1800 tps on their testbed),
// latency jumps by orders of magnitude near saturation, larger blocks give
// higher peak throughput.
#include "bench_common.h"

using namespace brdb;
using namespace brdb::bench;

int main() {
  std::printf("Figure 5(a): order-then-execute, simple contract\n");
  std::printf("%-10s %-12s %-14s %-14s %-10s\n", "blocksize", "arrival_tps",
              "throughput", "latency_ms", "aborted");

  const size_t kBlockSizes[] = {10, 100, 500};
  const double kRates[] = {200, 400, 800, 1600, 3200};
  int key = 0;

  for (size_t bs : kBlockSizes) {
    auto net = BlockchainNetwork::Create(
        BenchOptions(TransactionFlow::kOrderThenExecute, bs));
    if (!RegisterWorkloadContracts(net.get()).ok() || !net->Start().ok()) {
      std::fprintf(stderr, "setup failed\n");
      return 1;
    }
    Session* client = net->CreateSession("org1", "loadgen");
    Status st = net->DeployContract(
        "CREATE TABLE kv (k INT PRIMARY KEY, payload TEXT)");
    if (!st.ok()) {
      std::fprintf(stderr, "deploy failed: %s\n", st.ToString().c_str());
      return 1;
    }
    for (double rate : kRates) {
      int total = static_cast<int>(rate * 2);  // ~2 s of offered load
      int base = key;
      key += total;
      LoadResult r = RunLoad(net.get(), client, "simple", rate, total,
                             [&](int i) { return SimpleArgs(base + i); });
      std::printf("%-10zu %-12.0f %-14.1f %-14.2f %-10" PRIu64 "\n", bs,
                  r.offered_tps, r.committed_tps, r.mean_latency_ms,
                  r.aborted);
      std::fflush(stdout);
    }
    net->Stop();
  }
  return 0;
}
