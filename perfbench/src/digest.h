// Result digests: one 64-bit FNV-1a hash over every simulated statistic of
// an FL run, so two runs can be compared bit for bit.
#pragma once

#include <cstdint>

#include "core/multi_tenant.h"
#include "core/task_runtime.h"

namespace perfbench {

/// Final weight and bias bits, per-round time, clients, samples and
/// evaluation metrics, and the message, drop and fault counters.
std::uint64_t DigestResult(const simdc::core::FlRunResult& result);

/// DigestResult plus the tenant's completion flag, fault-plane SLA counters
/// and admission timeline.
std::uint64_t DigestTenant(const simdc::core::TenantResult& tenant);

}  // namespace perfbench
