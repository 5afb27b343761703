// Table IV reproduction: MNIST accuracy of the baseline HDC (averaged over
// iterative hypervector re-generation, monitored at the paper's checkpoints
// i in {1, 5, 20, 50, 75, 100}) vs uHD's single deterministic pass, for
// D in {1K, 2K, 8K}.
//
// Defaults are sized for a quick run; the paper-scale sweep is
//   UHD_TRAIN_N=60000 UHD_TEST_N=10000 UHD_ITERS=100 ./bench_table4_mnist
// (uses real MNIST automatically if IDX files are present, see
// bench_common.hpp).
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "uhd/common/stopwatch.hpp"
#include "uhd/common/table.hpp"
#include "uhd/common/thread_pool.hpp"
#include "uhd/core/encoder.hpp"
#include "uhd/hdc/baseline_encoder.hpp"
#include "uhd/hdc/classifier.hpp"

int main() {
    using namespace uhd;
    const auto w = bench::load_workload(1000, 300, 5);
    const auto [train, test] = bench::mnist_pair(w.train_n, w.test_n);

    std::printf("== Table IV: MNIST accuracy, baseline (avg over i) vs uHD (i=1) ==\n");
    std::printf("# %zu train / %zu test images, baseline iterations: %zu\n",
                train.size(), test.size(), w.iters);
    std::printf("# batch engine: %zu compute threads (shared-pool workers + caller)\n\n",
                thread_pool::shared().size() + 1);

    const std::vector<std::size_t> paper_checkpoints = {1, 5, 20, 50, 75, 100};
    text_table table;
    std::vector<std::string> header = {"D"};
    for (const std::size_t c : paper_checkpoints) {
        if (c <= w.iters) header.push_back("base i=1.." + std::to_string(c));
    }
    header.push_back("uHD i=1");
    table.set_header(header);

    for (const std::size_t dim : {1024u, 2048u, 8192u}) {
        stopwatch watch;
        // Baseline: accuracy at every iteration (fresh P/L seeds each time).
        hdc::baseline_config bcfg;
        bcfg.dim = dim;
        hdc::baseline_encoder baseline(bcfg, train.shape());
        std::vector<double> per_iteration;
        for (std::size_t i = 1; i <= w.iters; ++i) {
            baseline.reseed(i);
            hdc::hd_classifier<hdc::baseline_encoder> clf(baseline, train.num_classes());
            clf.fit(train);
            per_iteration.push_back(clf.evaluate(test));
        }

        // uHD: one deterministic pass; inference through the pooled batch
        // engine (bit-identical to serial evaluation for any thread count).
        core::uhd_config ucfg;
        ucfg.dim = dim;
        const core::uhd_encoder uhd(ucfg, train.shape());
        hdc::hd_classifier<core::uhd_encoder> uhd_clf(
            uhd, train.num_classes(), hdc::train_mode::raw_sums,
            hdc::query_mode::integer);
        // uHD training runs through the mini-batch parallel engine
        // (bit-identical to the sequential fit for any thread count).
        uhd_clf.fit_parallel(train, &thread_pool::shared());
        const double uhd_accuracy = uhd_clf.evaluate(test, nullptr,
                                                     &thread_pool::shared());

        std::vector<std::string> cells = {dim == 1024   ? "1K"
                                          : dim == 2048 ? "2K"
                                                        : "8K"};
        for (const std::size_t c : paper_checkpoints) {
            if (c > w.iters) continue;
            double sum = 0.0;
            for (std::size_t i = 0; i < c; ++i) sum += per_iteration[i];
            cells.push_back(format_fixed(100.0 * sum / static_cast<double>(c), 2));
        }
        cells.push_back(format_fixed(100.0 * uhd_accuracy, 2));
        table.add_row(std::move(cells));
        std::printf("# D=%zu done in %.1fs\n", dim, watch.seconds());
    }
    std::printf("\n%s\n", table.to_string().c_str());
    std::printf("paper (real MNIST, 60k/10k): baseline 82.93/86.24/88.30 at i=1 for\n");
    std::printf("1K/2K/8K; uHD 84.44/87.04/88.41 — uHD matches or beats the baseline\n");
    std::printf("at every D with a single iteration. The same ordering should appear\n");
    std::printf("above (absolute values differ on the synthetic analogue).\n");
    return 0;
}
