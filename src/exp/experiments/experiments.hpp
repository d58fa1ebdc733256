// Run functions of every registered experiment (one .cpp per figure or
// study under exp/experiments/). The registry (exp/registry.cpp) is the
// single table tying names and summaries to these functions.
#pragma once

#include "exp/params.hpp"
#include "exp/result_sink.hpp"

namespace egoist::exp {

void run_fig1_delay_ping(const ParamReader& params, ResultSink& sink);
void run_fig1_delay_coords(const ParamReader& params, ResultSink& sink);
void run_fig1_node_load(const ParamReader& params, ResultSink& sink);
void run_fig1_avail_bw(const ParamReader& params, ResultSink& sink);
void run_fig2_churn(const ParamReader& params, ResultSink& sink);
void run_fig3_rewirings(const ParamReader& params, ResultSink& sink);
void run_fig4_free_riders(const ParamReader& params, ResultSink& sink);
void run_fig5_8_sampling(const ParamReader& params, ResultSink& sink);
void run_fig10_multipath_bw(const ParamReader& params, ResultSink& sink);
void run_fig11_disjoint_paths(const ParamReader& params, ResultSink& sink);
void run_overhead_accounting(const ParamReader& params, ResultSink& sink);
void run_ablation_design_choices(const ParamReader& params, ResultSink& sink);
void run_steady_state(const ParamReader& params, ResultSink& sink);
void run_scale_frontier(const ParamReader& params, ResultSink& sink);
void run_serve_remote(const ParamReader& params, ResultSink& sink);

}  // namespace egoist::exp
