#include "uhd/core/binarizer.hpp"

#include "uhd/common/error.hpp"

namespace uhd::core {

popcount_binarizer::popcount_binarizer(std::size_t h)
    : popcount_binarizer(h, (h + 1) / 2) {} // ceil(H/2): ties -> +1

popcount_binarizer::popcount_binarizer(std::size_t h, std::size_t tob)
    : h_(h), tob_(tob) {
    UHD_REQUIRE(h >= 1, "binarizer needs at least one input");
    UHD_REQUIRE(tob >= 1 && tob <= h + 1, "threshold out of counter range");
}

void popcount_binarizer::feed(bool bit) {
    UHD_REQUIRE(consumed_ < h_, "binarizer fed more than H bits");
    ++consumed_;
    if (bit) {
        ++count_;
        // Masking logic: all counter bits selected by the TOB pattern are
        // monotone once the count passes TOB, so a single AND latches the
        // sign. Modeled behaviourally as count >= TOB.
        if (count_ >= tob_) sign_ = true;
    }
}

} // namespace uhd::core
