// Fixture: a relative quoted include inside src/psync bypasses the layer
// check and must fire layer-relative-include.
#include "stream_merge.hpp"

int use_relative();
