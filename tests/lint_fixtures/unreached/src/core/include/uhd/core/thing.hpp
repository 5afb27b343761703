// Fixture: the functions of thing.cpp, one per unreached-function case.
#ifndef FIXTURE_UHD_CORE_THING_HPP
#define FIXTURE_UHD_CORE_THING_HPP

namespace uhd::core {

class thing {
public:
    explicit thing(int value);
    [[nodiscard]] int value() const noexcept { return value_; }

private:
    int value_;
};

int probe();
int reference();
int stale();

} // namespace uhd::core

#endif // FIXTURE_UHD_CORE_THING_HPP
