// Umbrella header for the concrete sharing policies.
#pragma once

#include "sched/mps.hpp"   // IWYU pragma: export
#include "sched/slot.hpp"  // IWYU pragma: export
