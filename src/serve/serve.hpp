#pragma once
// Serving-engine umbrella header.
//
// Minimal usage (see examples/serving.cpp):
//
//   using namespace magicube;
//   serve::DevicePoolConfig cfg;
//   cfg.device_count = 1;                         // one simulated device
//   serve::DevicePool engine(cfg);
//   serve::Request req;
//   req.op = serve::OpKind::spmm;
//   req.precision = precision::L8R8;
//   req.pattern = std::make_shared<const sparse::BlockPattern>(pattern);
//   req.lhs_values = std::make_shared<const Matrix<std::int32_t>>(weights);
//   req.rhs_values = std::make_shared<const Matrix<std::int32_t>>(acts);
//   auto future = engine.submit(std::move(req));
//   const serve::Response resp = future.get();    // bit-exact SpmmResult
//   // engine.device_cache(0).stats() / engine.plan_cache().stats() report
//   // operand and plan amortization
//
// serve_request(req, cache) (serve/execute.hpp) runs one request
// synchronously against a cache, without an engine.

// Multi-device usage (see the "Elastic fleet & tracing" README section):
//
//   serve::DevicePoolConfig pool_cfg;
//   pool_cfg.devices = {simt::a100(), simt::a100(), simt::edge()};
//   pool_cfg.fault_plan.probability = 0.05;       // seeded fault injection
//   serve::DevicePool pool(pool_cfg);
//   const std::size_t d = pool.add_device(simt::edge());  // join mid-traffic
//   auto resp = pool.submit(std::move(req)).get();
//   pool.drain_device(d);                         // leave mid-traffic
//   // resp.device / resp.shards / resp.retries report the placement;
//   // resp.trace (serve/trace.hpp) is the request's span timeline, and
//   // pool.traces().write_json(path) exports the completed-trace ring.
//
// SLA-aware usage (see the "SLA-aware serving" README section):
//
//   serve::WarmupManifest manifest;               // known-hot layers
//   manifest.entries.push_back({.pattern = layer, .cols = 256, .pin = true});
//   pool.warmup(manifest);                        // pre-build + pin plans
//   req.deadline_seconds = 1e-4;                  // modeled-seconds budget
//   try {
//     auto resp = pool.submit(std::move(req)).get();
//   } catch (const serve::ShedError&) {
//     // modeled completion exceeded the deadline on every active device
//   }
//
// Fused attention graphs & token streams (see the "Graph serving & token
// streams" README section):
//
//   auto g = std::make_shared<serve::GraphRequest>();    // whole DAG,
//   g->q = q; g->k = k; g->v = v; g->mask = mask;        // one request
//   g->scheme = transformer::AttentionScheme::magicube_8b_8b;
//   auto resp = pool.submit(serve::make_graph_request(g)).get();
//   // resp.graph->out is the attention output; resp.graph->stages the
//   // per-stage breakdown (also traced as stage_* spans).
//
//   serve::SessionConfig sess;                    // continuous batching
//   sess.mask = full_mask; sess.dk = 64;          // over token streams
//   serve::TokenSession s = pool.open_session(sess);  // ShedError when the
//   auto step = s.step(q_rows, k_rows, v_rows);   // session budget is full
//
#include "serve/device_pool.hpp"
#include "serve/execute.hpp"
#include "serve/fault.hpp"
#include "serve/graph.hpp"
#include "serve/operand_cache.hpp"
#include "serve/request.hpp"
#include "serve/session.hpp"
#include "serve/shard.hpp"
#include "serve/sla.hpp"
#include "serve/trace.hpp"
