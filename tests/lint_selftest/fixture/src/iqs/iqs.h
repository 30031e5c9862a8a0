// Fixture umbrella header. Deliberately does NOT include
// range/orphan.h, so the umbrella rule has exactly one finding.
#ifndef FIXTURE_IQS_IQS_H_
#define FIXTURE_IQS_IQS_H_

#include "iqs/join/bad_join_batch.h"
#include "iqs/range/clean_sampler.h"
#include "iqs/serve/bad_frontend.h"
#include "iqs/util/violations.h"

#endif  // FIXTURE_IQS_IQS_H_
