// Fixture: layering violation — a serve/ header pulling in a concrete
// sampler header. Expected finding: layering on the range/ include only
// (the util/ include is allowed).
#ifndef FIXTURE_IQS_SERVE_BAD_FRONTEND_H_
#define FIXTURE_IQS_SERVE_BAD_FRONTEND_H_

#include "iqs/range/clean_sampler.h"  // VIOLATION: layering
#include "iqs/util/violations.h"

#endif  // FIXTURE_IQS_SERVE_BAD_FRONTEND_H_
