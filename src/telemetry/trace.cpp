#include "telemetry/trace.hpp"

namespace xct::telemetry {

namespace {
thread_local RankId t_current_rank{};
}  // namespace

RankId current_rank()
{
    return t_current_rank;
}

void set_current_rank(RankId rank)
{
    t_current_rank = rank;
}

}  // namespace xct::telemetry
