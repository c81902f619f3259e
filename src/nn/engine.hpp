// Inference engine: materialises a Graph's weights and executes it.
//
// Weights are deterministic functions of (graph structure, seed); this
// reproduction benchmarks compute behaviour, which is independent of the
// trained values, so He-initialised weights stand in for checkpoints.
// (Accuracy experiments use the separately *trained* MiniYolo models —
// see src/trainer.)
//
// Planning is explicit: prepare(PlanRequest) is the single entry point
// that decides, per conv layer, which implementation to run (im2col
// stripes → packed GEMM, direct 1×1, Winograd F(2×2,3×3), or the
// quantized stripes) and which weight storage it reads, sizes
// activations for the requested micro-batch, selects the execution
// precision, and reserves the scratch arena — consulting the
// process-wide PlanCache so identical layers across engines share one
// costed decision (see nn/planner.hpp). One interpreter executes the
// prepared ExecutionPlan: a single strided pass over the graph that runs
// every node for all images of a call. run() is a batch-1 pass and
// run_batch() a batched one, except under INT8, where run_batch() loops
// the pass once per image (the u8 buffers are sized for one image).
//
// Every plan, at every precision, executes graph fusion (nn/fusion.hpp):
// residual Adds fold into their producer conv's epilogue, concat
// producers write straight into the concat's buffer, and all float
// activations live in one liveness-planned arena whose slots are reused
// once their data is dead.
//
// Steady-state frame path: every conv/deconv/linear weight matrix is
// repacked once at load time into PackedA tile panels (re-done lazily
// if a test or trainer mutates weight()), the activation arena is sized
// at plan time, and conv scratch comes from an arena reserved at prepare
// time (a deconv runs as its lowered conv, see nn/ops.hpp) — so run()
// and a re-prepare() that changes nothing perform no heap allocation
// after warm-up (see scratch_arena() for the test hook).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "nn/fusion.hpp"
#include "nn/graph.hpp"
#include "nn/ops.hpp"
#include "nn/planner.hpp"
#include "nn/prune.hpp"
#include "nn/quantize.hpp"

namespace ocb::nn {

/// Weight-integrity checking (DESIGN.md §14). The engine records a
/// CRC32 per packed weight panel (dense, sparse and half formats) at
/// pack time; verification compares the live panels against the
/// recorded values and, on mismatch, re-packs the node from the master
/// fp32 weights_ tensor — which silent in-memory corruption cannot
/// reach through the packed-panel accessors.
struct IntegrityConfig {
  /// Verify one node (round-robin) every N frames; 0 disables. The
  /// cadence amortises the sweep so a frame pays one panel's CRC, not
  /// the whole model's.
  int verify_every = 0;
  /// Re-pack a failing node from the master weights (true) or only
  /// count the mismatch (false — detection-only telemetry).
  bool recover = true;
};

/// Counters accumulated by the verification path since construction.
struct IntegrityReport {
  std::uint64_t nodes_checked = 0;
  std::uint64_t mismatches = 0;
  std::uint64_t repacks = 0;
};

/// Everything a planning pass depends on. Defaults reproduce a plain
/// fp32 batch-1 engine with the full candidate set enabled.
struct PlanRequest {
  int max_batch = 1;             ///< frames run_batch may fuse
  Precision precision = Precision::kFp32;
  /// Optional calibration for kInt8 (when null, the ranges recorded by
  /// the last calibrate() are used).
  const QuantCalibration* calibration = nullptr;
  PlannerConfig planner{};       ///< candidate toggles, cost model, cache
  /// Structured magnitude pruning (see nn/prune.hpp). When enabled, the
  /// per-layer sparsity percent joins each conv/linear plan key and the
  /// planner may pick sparse packed kernels; under kInt8 the masks zero
  /// weights before quantization (accuracy effect only — the quantized
  /// kernels stay dense).
  SparsityConfig sparsity{};
  /// 16-bit encoding used when the planner picks half storage (kFp16
  /// precision).
  HalfFormat half_format = HalfFormat::kFp16;
  /// Checksum-verification cadence for the packed weight panels.
  /// Config-only: changing it never invalidates the plan or allocates.
  IntegrityConfig integrity{};
};

/// The engine's active plan, returned by prepare() for observability.
/// Valid until the next prepare() on the same engine.
struct ExecutionPlan {
  Precision precision = Precision::kFp32;
  int max_batch = 1;
  /// Per graph-node plans; non-conv nodes keep the default entry.
  std::vector<ConvPlan> nodes;
  int conv_nodes = 0;
  int winograd_nodes = 0;
  int direct_nodes = 0;
  int quant_nodes = 0;
  /// Conv/linear nodes running sparse packed kernels (kSparse or
  /// kSparseHalf storage) and half-stored panels (kHalf or kSparseHalf)
  /// — a node with kSparseHalf counts in both.
  int sparse_nodes = 0;
  int fp16_nodes = 0;
  /// Conv nodes running the im2col-free stripe paths (kIm2colFused or
  /// kIm2colQuantFused).
  int fused_nodes = 0;
  /// Graph-fusion results (see nn/fusion.hpp): Add nodes folded into
  /// conv epilogues and concat input copies eliminated by placement.
  int residual_fused = 0;
  int concat_elided = 0;
  /// Activation memory: what one buffer per node would take vs the
  /// liveness-planned arena the engine allocates.
  std::size_t arena_peak_bytes_before = 0;
  std::size_t arena_peak_bytes_after = 0;
  /// Conv scratch the plan needs at max_batch: the largest per-node
  /// lowering buffer (stripe panels, Winograd block slots, quad
  /// buffers), which the engine's one conv arena must hold.
  std::size_t conv_scratch_bytes = 0;
  /// PlanCache traffic attributable to the last prepare() (approximate
  /// when other threads plan concurrently against the same cache).
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;

  /// Human-readable per-layer table (layer, geometry, chosen algo, its
  /// estimate and the dense im2col stripes' estimate) for logs and
  /// benches.
  std::string to_text(const Graph& graph) const;
};

class Engine {
 public:
  /// Allocates and initialises all parameters (He-normal, per-node
  /// deterministic seeds derived from `seed`), packs weight panels and
  /// builds the baseline plan (fp32, batch 1, dense im2col stripes
  /// everywhere — the planner engages through prepare()).
  Engine(const Graph& graph, std::uint64_t seed = 1);

  const Graph& graph() const noexcept { return graph_; }

  /// Plan execution for `request`: pick each conv's implementation via
  /// the shape-keyed PlanCache, (re)size activations for max_batch
  /// (grow-only), transform Winograd weight panels, reserve arena
  /// scratch and select the precision. Re-preparing with a request
  /// that changes nothing is heap-free (plans land in pre-sized
  /// storage; cache lookups never allocate). The returned reference
  /// stays valid for the engine's lifetime and always describes the
  /// active plan.
  const ExecutionPlan& prepare(const PlanRequest& request);

  /// The active plan (as built by the last prepare(), or the
  /// constructor's baseline).
  const ExecutionPlan& plan() const noexcept { return plan_; }

  /// Run a forward pass; `input` must match the graph's input shape
  /// (batch 1). Returns the outputs marked by Graph::mark_output, in
  /// order. The returned tensors live in pre-sized engine storage —
  /// no allocation happens on this path after construction — and stay
  /// valid until the next run()/run_batch()/prepare(); copy them
  /// (e.g. `auto outs = engine.run(x);`) to keep a snapshot.
  const std::vector<Tensor>& run(const Tensor& input);

  int max_batch() const noexcept { return max_batch_; }

  /// Run up to max_batch() frames as one forward pass: every conv
  /// processes all frames side by side (batch-spanning im2col stripes
  /// or batched Winograd tiles, per the active plan) so per-layer dispatch
  /// overhead is paid once per batch, not once per frame. Returns
  /// outputs[frame][output], each a batch-1 tensor matching what
  /// run(frame) would produce. run() is the same pass at batch 1.
  /// INT8 engines run the pass once per frame instead (the quantized
  /// path keeps per-image u8 buffers). Like run(), the view aliases
  /// pre-sized engine storage (heap-free per call) and is invalidated
  /// by the next run()/run_batch()/prepare().
  std::span<const std::vector<Tensor>> run_batch(
      const std::vector<Tensor>& inputs);

  /// Output tensor of a specific node from the most recent run(),
  /// copied out of the activation arena into a per-node tensor that is
  /// allocated on the node's first request and keeps its address
  /// (several may be held at once). Exact for graph outputs and for
  /// u8-resident INT8 nodes; any other node returns its arena slot's
  /// current contents, which a later node may have reused.
  const Tensor& node_output(int node) const;

  /// The active fusion/memory plan.
  const MemoryPlan& fusion_plan() const noexcept { return fusion_; }

  /// Direct access to a conv/deconv/linear node's weights (tests &
  /// trainer).
  /// Mutating the returned tensor marks the node's packed panels dirty;
  /// they are repacked (and re-transformed, for Winograd-planned
  /// nodes) on the next run().
  Tensor& weight(int node);
  Tensor& bias(int node);
  /// Read-only views of the master weights (the panels stay clean).
  const Tensor& weight(int node) const;
  const Tensor& bias(int node) const;

  /// The conv scratch arena. Tests assert the frame path stays
  /// allocation-free: stats().grows must remain 0 across run() calls.
  const Arena& scratch_arena() const noexcept { return scratch_.arena; }

  /// Run `frames` through the FP32 path, recording each node's output
  /// min/max right after the node runs. Residual-folded convs get no
  /// range: their output only exists summed into the Add's buffer, and
  /// INT8 never reads it. The result is also retained internally, so a
  /// following prepare() for kInt8 needs no explicit calibration
  /// argument. Requires the active precision to be kFp32.
  QuantCalibration calibrate(const std::vector<Tensor>& frames);

  /// The active plan's precision (folded into PlanRequest; this is a
  /// read-only view of plan().precision).
  Precision precision() const noexcept { return precision_; }

  /// Verify every packed weight panel against its recorded CRC32 now
  /// (a full sweep, independent of the configured cadence). Returns
  /// the number of nodes whose live panels mismatched; with `recover`
  /// each failing node is re-packed from the master weights before
  /// returning. The clean (no-mismatch) sweep is heap-free.
  int verify_weights(bool recover = true);

  /// Counters accumulated by cadence ticks and explicit sweeps.
  const IntegrityReport& integrity_report() const noexcept {
    return integrity_report_;
  }

  /// Direct access to a node's packed fp32 panels for fault injection:
  /// writes through PackedA::mutable_data() bypass dirty-weight
  /// tracking, modelling silent memory corruption the checksum layer
  /// must catch. Node must be conv/deconv/linear (non-empty panels).
  PackedA& packed_panels(int node);

  /// The CRC32 recorded for a node's dense panels at pack time (0 when
  /// the node carries none). Node must be in range.
  std::uint32_t recorded_checksum(int node) const;

  // --- Plan-verifier introspection (src/verify, DESIGN.md §15) -------
  // Read-only views of the state the static plan verifier audits. The
  // verifier re-derives soundness independently; these accessors only
  // expose *what the engine did*, never whether it was legal.

  /// Which packed weight formats a node carries and the CRC32 recorded
  /// for each at pack time (0 = format not packed).
  struct PanelState {
    bool dense = false;
    bool sparse = false;
    bool sparse_half = false;  ///< sparse panels store 16-bit values
    bool half = false;
    bool winograd = false;  ///< transformed 3×3 panels present
    std::uint32_t dense_crc = 0;
    std::uint32_t sparse_crc = 0;
    std::uint32_t half_crc = 0;
    std::size_t dense_rows = 0;  ///< shape of the packed dense matrix
    std::size_t dense_cols = 0;
  };
  PanelState panel_state(int node) const;

  /// A node's INT8 execution state under the active plan.
  struct QuantState {
    bool quantized = false;  ///< node runs the u8×s8 kernels
    bool emit_u8 = false;    ///< output stays u8-resident mid-graph
  };
  QuantState quant_state(int node) const;

  /// The applied activation layout for one node: image b of the node
  /// lives at base + b·stride_floats, inside the activation arena
  /// [backing, backing + backing_floats).
  struct ActLayoutView {
    const float* base = nullptr;
    std::size_t stride_floats = 0;
    const float* backing = nullptr;
    std::size_t backing_floats = 0;
  };
  ActLayoutView act_layout(int node) const;

  /// Debug-build plan-verification gate. When the build compiles the
  /// gate in (OCB_PLAN_VERIFY, default outside Release) and a hook is
  /// installed, every prepare() that rebuilt the plan invokes it with
  /// the fully assembled engine state before returning; the hook is
  /// expected to OCB_CHECK-fail on an unsound plan (see
  /// ocb::verify::install_prepare_gate). Process-wide and atomic; the
  /// setter exists in every build so callers need no #if of their own.
  using PlanVerifyHook = void (*)(const Engine& engine);
  static void set_plan_verify_hook(PlanVerifyHook hook) noexcept;
  static PlanVerifyHook plan_verify_hook() noexcept;

 private:
  /// One node's packed weight panels in every format the plan may run,
  /// the CRC32 recorded for each at pack time (0 = format not packed)
  /// and whether weight() was handed out since the last pack.
  struct NodeWeights {
    /// The node's GEMM weight matrix (always packed): a conv's or
    /// linear's weights as stored, a deconv's lowered phase matrix.
    PackedA dense;
    /// Compressed panels, built lazily when the plan assigns the node
    /// kSparse/kSparseHalf or kHalf storage (empty otherwise).
    PackedSparseA sparse;
    PackedHalfA half;
    /// Winograd weight panels (16), packed lazily when the plan first
    /// selects kWinograd for the node.
    std::vector<PackedA> wino;
    std::uint32_t dense_crc = 0;
    std::uint32_t sparse_crc = 0;
    std::uint32_t half_crc = 0;
    bool dirty = false;

    /// Re-record the CRC32s of all live formats.
    void record_checksums();
    /// True when every live format still matches its recorded CRC32.
    bool checksums_match() const;
    /// Hands the panels `storage` names to `fn` (the one storage
    /// dispatch the interpreter uses; heap-free).
    template <typename Fn>
    void visit(WeightStorage storage, Fn&& fn) const {
      switch (storage) {
        case WeightStorage::kHalf: fn(half); return;
        case WeightStorage::kSparse:
        case WeightStorage::kSparseHalf: fn(sparse); return;
        case WeightStorage::kDense: break;
      }
      fn(dense);
    }
  };

  /// The graph interpreter: executes every node once for all of
  /// `inputs` (batch-1 images, at most max_batch_), image b of node i
  /// living at act_base_[i] + b·act_stride_[i]. INT8 runs batch 1 only.
  void forward(std::span<const Tensor> inputs);
  void repack(int node);
  /// The row-major weight matrix `node`'s panels pack: the master
  /// tensor, or for a deconv its phase matrix written into `scratch`.
  const float* gemm_matrix(int node, std::vector<float>& scratch) const;
  /// Size deconv_stage_ for max_batch_ images of the largest deconv,
  /// and deconv_bias_ for its phase rows.
  void size_deconv_stage();
  /// Every conv/linear call rewinds the conv arena and takes its
  /// scratch (stripe slots, Winograd tiles, INT8 quads) from one block:
  /// grow the arena so one block holds the hungriest node's scratch
  /// under the active plan at max_batch_ images.
  void reserve_conv_scratch();
  /// Verify one node's panels; re-pack from master weights on mismatch
  /// when `recover`. Returns true when all live panels matched.
  bool verify_node(int node, bool recover);
  /// Cadence hook called once per forward pass: after every
  /// integrity_.verify_every passes, verify the next node round-robin.
  void maybe_verify_tick();
  /// Build the compressed weight panels (sparse and/or half) the active
  /// plan wants for `node`, if any are missing or stale.
  void pack_storage(int node);
  /// Transform + pack node's 3×3 weights into 16 Winograd panels.
  void pack_winograd(int node);
  void build_int8_plan();
  /// Grow output slots and deconv staging for micro-batches of
  /// `max_batch` (grow-only).
  void grow_batch_plan(int max_batch);
  /// Plan fusion over the active conv plans and max_batch_, size the
  /// activation arena and recompute per-node base pointers and
  /// per-image strides into it.
  void rebuild_act_layout();
  /// (Re)allocates the output snapshot slots: one batch_outputs_ row
  /// per planned batch image (row 0 is what run() returns). The only
  /// place output storage is allocated — the run paths just copy into
  /// it.
  void resize_output_slots();
  /// Copies image `image` of every graph output into `dst`'s pre-sized
  /// batch-1 tensors.
  void materialize_outputs(int image, std::vector<Tensor>& dst) const;

  Graph graph_;  // engine owns an immutable copy of the structure
  std::vector<Tensor> weights_;
  std::vector<Tensor> biases_;
  /// node_output()'s per-node copies, allocated on first request.
  mutable std::vector<Tensor> node_views_;
  std::vector<NodeWeights> panels_;  ///< per-node packed weights + CRCs
  /// Pre-sized output snapshots returned by run() (row 0) and
  /// run_batch() (one row per image).
  std::vector<std::vector<Tensor>> batch_outputs_;
  ConvScratch scratch_;
  bool has_run_ = false;  ///< the arena holds a pass's activations
  int max_batch_ = 1;     ///< activation batch capacity (see prepare)
  std::size_t conv_scratch_bytes_ = 0;  ///< largest arena block reserved
  /// A deconv's lowered conv result, staged for the interleave. Held
  /// apart from the conv arena, which every conv call rewinds.
  std::vector<float> deconv_stage_;
  /// The deconv's bias repeated once per output phase (the lowered
  /// conv's per-row epilogue bias).
  std::vector<float> deconv_bias_;

  /// Active fusion/memory plan and the per-node activation views it
  /// induces: node i's image b lives at act_base_[i] + b*act_stride_[i]
  /// inside act_arena_, the only activation storage.
  MemoryPlan fusion_;
  std::vector<float*> act_base_;
  std::vector<std::size_t> act_stride_;
  std::vector<float> act_arena_;
  /// Non-null only inside calibrate(): forward() records each node's
  /// output range here right after the node runs.
  QuantCalibration* observe_ = nullptr;

  ExecutionPlan plan_;               ///< active plan (see prepare)
  std::vector<ConvPlan> plan_scratch_;  ///< pre-sized planning staging

  /// Checksum state (the recorded CRCs live in panels_): the
  /// conv/linear node list the cadence walks, and its cursor.
  IntegrityConfig integrity_{};
  IntegrityReport integrity_report_{};
  std::vector<int> integrity_nodes_;
  std::size_t integrity_cursor_ = 0;
  int integrity_tick_ = 0;

  Precision precision_ = Precision::kFp32;
  SparsityConfig sparsity_{};             ///< active pruning config
  HalfFormat half_format_ = HalfFormat::kFp16;
  /// Masked weight staging for int8 quantization under pruning.
  std::vector<float> masked_scratch_;
  QuantCalibration calib_;                ///< last recorded calibration
  std::vector<QuantizedLayer> qlayers_;   ///< per-node INT8 state
  std::vector<TensorQuant> node_quant_;   ///< per-node activation quant
  std::vector<std::vector<std::uint8_t>> u8_acts_;  ///< persistent u8 bufs
  std::vector<char> u8_valid_;            ///< u8 buffer current this frame
  std::vector<char> float_stale_;         ///< output u8-resident this pass
};

}  // namespace ocb::nn
