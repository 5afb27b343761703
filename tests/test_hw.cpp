// Tests for the hardware cost model: cell library sanity, module builders,
// and the design-point assemblies behind Table II and the checkpoints.
#include <gtest/gtest.h>

#include "uhd/common/error.hpp"
#include "uhd/hw/cells.hpp"
#include "uhd/hw/modules.hpp"
#include "uhd/hw/report.hpp"

namespace {

using namespace uhd::hw;

TEST(CellLibrary, AllSpecsArePhysical) {
    const auto& lib = cell_library::generic_45nm();
    for (std::size_t i = 0; i < cell_kind_count; ++i) {
        const auto& spec = lib.spec(static_cast<cell_kind>(i));
        EXPECT_GT(spec.area_um2, 0.0) << spec.name;
        EXPECT_GT(spec.energy_fj, 0.0) << spec.name;
        EXPECT_GT(spec.delay_ps, 0.0) << spec.name;
        EXPECT_GE(spec.inputs, 1u) << spec.name;
    }
}

TEST(CellLibrary, RelativeOrderingsMakeSense) {
    const auto& lib = cell_library::generic_45nm();
    // XOR is bigger and slower than NAND; DFF dominates simple gates.
    EXPECT_GT(lib.spec(cell_kind::xor2).area_um2, lib.spec(cell_kind::nand2).area_um2);
    EXPECT_GT(lib.spec(cell_kind::dff).area_um2, lib.spec(cell_kind::xor2).area_um2);
    EXPECT_GT(lib.spec(cell_kind::full_adder).energy_fj,
              lib.spec(cell_kind::half_adder).energy_fj);
}

TEST(CellCounts, CompositionIsAdditive) {
    cell_counts a;
    a.add(cell_kind::and2, 3);
    a.add(cell_kind::dff);
    cell_counts b;
    b.add(a, 2);
    b.add(cell_kind::and2);
    EXPECT_EQ(b.count(cell_kind::and2), 7u);
    EXPECT_EQ(b.count(cell_kind::dff), 2u);
    EXPECT_EQ(b.total(), 9u);
    const auto& lib = cell_library::generic_45nm();
    EXPECT_NEAR(b.area_um2(lib), 7 * 1.33 + 2 * 4.52, 1e-9);
}

TEST(Modules, UnaryComparatorInventoryMatchesFig4) {
    const hw_module m = make_unary_comparator(16);
    // N AND (min) + (N-1) AND (reduce), N INV, N OR.
    EXPECT_EQ(m.cells.count(cell_kind::and2), 31u);
    EXPECT_EQ(m.cells.count(cell_kind::inv), 16u);
    EXPECT_EQ(m.cells.count(cell_kind::or2), 16u);
    const auto& lib = cell_library::generic_45nm();
    EXPECT_GT(m.area_um2(lib), 0.0);
    EXPECT_GT(m.delay_ps(lib), 0.0);
}

TEST(Modules, UnaryComparatorCheaperThanBinaryAtPaperSizes) {
    // The headline hardware claim: the N = 16 unary comparator beats the
    // wide binary comparator the baseline needs, in energy and delay.
    const auto& lib = cell_library::generic_45nm();
    const hw_module unary = make_unary_comparator(16);
    const hw_module binary = make_binary_comparator(10);
    EXPECT_LT(unary.energy_per_op_fj(lib), binary.energy_per_op_fj(lib));
    EXPECT_LT(unary.delay_ps(lib), binary.delay_ps(lib));
}

TEST(Modules, MaskBinarizerBeatsSubtractorBinarizer) {
    const auto& lib = cell_library::generic_45nm();
    const hw_module mask = make_popcount_mask_binarizer(784);
    const hw_module sub = make_popcount_subtract_binarizer(784);
    EXPECT_LT(mask.energy_per_op_fj(lib), sub.energy_per_op_fj(lib));
    EXPECT_LT(mask.area_um2(lib), sub.area_um2(lib));
    EXPECT_LT(mask.delay_ps(lib), sub.delay_ps(lib));
}

TEST(Modules, CounterScalesWithWidth) {
    const auto& lib = cell_library::generic_45nm();
    EXPECT_LT(make_counter(4).area_um2(lib), make_counter(10).area_um2(lib));
    EXPECT_LT(make_counter(4).delay_ps(lib), make_counter(10).delay_ps(lib));
}

TEST(Modules, LfsrUsesTapTable) {
    const hw_module m = make_lfsr(16);
    EXPECT_EQ(m.cells.count(cell_kind::dff), 16u);
    EXPECT_EQ(m.cells.count(cell_kind::xor2), 3u); // 4 taps -> 3 XORs
}

TEST(Modules, ValidationErrors) {
    EXPECT_THROW((void)make_unary_comparator(1), uhd::error);
    EXPECT_THROW((void)make_binary_comparator(0), uhd::error);
    EXPECT_THROW((void)make_counter(0), uhd::error);
    EXPECT_THROW((void)make_ust_decoder(1), uhd::error);
    EXPECT_THROW((void)make_popcount_mask_binarizer(0), uhd::error);
}

TEST(MemoryModel, BramVsRegfileTradeoffs) {
    const memory_model bram = memory_model::bram("b", 1024);
    const memory_model regs = memory_model::regfile("r", 1024);
    EXPECT_GT(bram.read_energy_fj_per_bit, regs.read_energy_fj_per_bit);
    EXPECT_LT(bram.area_um2_per_bit, regs.area_um2_per_bit);
    EXPECT_GT(bram.read_energy_fj(8), 0.0);
    EXPECT_GT(regs.area_um2_per_bit, 0.0);
}

class CostModelPoints : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CostModelPoints, UhdWinsEveryCheckpoint) {
    const hdc_cost_model model;
    design_point p;
    p.dim = GetParam();
    // Checkpoint 1: stream generation per bit.
    EXPECT_LT(model.uhd_bitgen_energy_fj(p), model.baseline_bitgen_energy_fj(p));
    // Checkpoint 2: comparator per hypervector.
    EXPECT_LT(model.uhd_comparator_energy_pj_per_hv(p),
              model.baseline_comparator_energy_pj_per_hv(p));
    // Checkpoint 3: accumulate-and-binarize per feature.
    EXPECT_LT(model.uhd_accbin_energy_pj_per_feature(p),
              model.baseline_accbin_energy_pj_per_feature(p));
}

TEST_P(CostModelPoints, TableTwoOrderings) {
    const hdc_cost_model model;
    design_point p;
    p.dim = GetParam();
    const cost_summary uhd_hv = model.uhd_per_hv(p);
    const cost_summary base_hv = model.baseline_per_hv(p);
    EXPECT_LT(uhd_hv.energy_pj, base_hv.energy_pj);
    EXPECT_LT(uhd_hv.area_delay_m2s(), base_hv.area_delay_m2s());
    const cost_summary uhd_img = model.uhd_per_image(p);
    const cost_summary base_img = model.baseline_per_image(p);
    EXPECT_LT(uhd_img.energy_pj, base_img.energy_pj);
    EXPECT_GT(uhd_img.energy_pj, uhd_hv.energy_pj);
    EXPECT_GT(base_img.energy_pj, base_hv.energy_pj);
    EXPECT_GT(model.system_efficiency_ratio(p), 1.0);
}

INSTANTIATE_TEST_SUITE_P(Dims, CostModelPoints, ::testing::Values(1024, 2048, 8192));

TEST(CostModel, EnergyGrowsWithDimension) {
    const hdc_cost_model model;
    design_point small;
    small.dim = 1024;
    design_point big;
    big.dim = 8192;
    EXPECT_GT(model.uhd_per_hv(big).energy_pj, model.uhd_per_hv(small).energy_pj);
    EXPECT_GT(model.baseline_per_hv(big).energy_pj,
              model.baseline_per_hv(small).energy_pj);
}

TEST(CostModel, IterationsMultiplyBaselineGeneration) {
    const hdc_cost_model model;
    design_point once;
    design_point hundred;
    hundred.baseline_iterations = 100;
    EXPECT_NEAR(model.baseline_per_hv(hundred).energy_pj,
                model.baseline_per_hv(once).energy_pj * 100.0, 1e-6);
    // uHD never iterates, so its cost is independent of that knob.
    EXPECT_DOUBLE_EQ(model.uhd_per_hv(hundred).energy_pj,
                     model.uhd_per_hv(once).energy_pj);
}

} // namespace
