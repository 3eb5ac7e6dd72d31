// Fixture: a layer below core reaching up for the worker pool to fan its
// own loops out.
// expect: pool-below-core
// as-path: field/solver.cpp
#include "core/threadpool.hpp"

void sweep_planes(biochip::core::ThreadPool& pool);
