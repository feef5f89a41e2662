// Umbrella header: the full public API of the imc library.
//
//   #include <imc/imc.h>
//
// Quickstart (see examples/quickstart.cpp for the runnable version):
//
//   imc::Graph graph = imc::make_dataset(imc::DatasetId::kFacebook);
//   imc::CommunitySet com = imc::build_communities(graph, {});
//   imc::UbgSolver solver;
//   imc::ImcafResult result = imc::imcaf_solve(graph, com, /*k=*/10, solver);
//
#pragma once

// util
#include "util/cli.h"
#include "util/context.h"
#include "util/logging.h"
#include "util/mathx.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/table.h"
#include "util/thread_pool.h"

// graph substrate
#include "graph/algorithms.h"
#include "graph/builder.h"
#include "graph/delta.h"
#include "graph/edgelist_io.h"
#include "graph/generators/dataset_catalog.h"
#include "graph/generators/generators.h"
#include "graph/graph.h"
#include "graph/metrics.h"
#include "graph/types.h"
#include "graph/weights.h"

// communities
#include "community/community_io.h"
#include "community/community_set.h"
#include "community/label_propagation.h"
#include "community/louvain.h"
#include "community/metrics.h"
#include "community/modularity.h"
#include "community/random_partition.h"
#include "community/size_cap.h"
#include "community/threshold_policy.h"

// diffusion
#include "diffusion/ic_model.h"
#include "diffusion/live_edge.h"
#include "diffusion/lt_model.h"
#include "diffusion/monte_carlo.h"

// sampling
#include "sampling/pool_snapshot.h"
#include "sampling/ric_pool.h"
#include "sampling/ric_sample.h"
#include "sampling/rr_set.h"

// estimation
#include "estimation/benefit_oracle.h"
#include "estimation/concentration.h"
#include "estimation/dagum.h"
#include "estimation/dklr_aa.h"

// core algorithms
#include "core/baselines/centrality.h"
#include "core/baselines/hbc.h"
#include "core/baselines/im_ris.h"
#include "core/baselines/imm.h"
#include "core/baselines/ks.h"
#include "core/baselines/simple.h"
#include "core/brute_force.h"
#include "core/bt.h"
#include "core/engine.h"
#include "core/greedy.h"
#include "core/imcaf.h"
#include "core/maf.h"
#include "core/maxr_solver.h"
#include "core/mb.h"
#include "core/objective.h"
#include "core/problem.h"
#include "core/reductions.h"
#include "core/ubg.h"
