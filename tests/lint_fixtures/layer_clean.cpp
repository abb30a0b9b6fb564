// Fixture: downward edges that the frozen DAG allows (dist -> common,
// dist -> driver, dist -> dist) must pass.
#include "psync/common/journal.hpp"
#include "psync/dist/stream_merge.hpp"
#include "psync/driver/session.hpp"

int use_allowed();
