// Fixture: the control layer owns the chamber fan-out, so it may hold the
// worker pool.
// as-path: control/fleet.cpp
#include "core/threadpool.hpp"

void tick_chambers(biochip::core::ThreadPool* pool);
