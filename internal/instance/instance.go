// Package instance models one serving instance: the minimal GPU set holding
// a complete copy of the model (§2.1), and the local memory manager of §4.1.
//
// Real KunServe allocates all GPU physical memory with cuMemCreate and binds
// it to virtual ranges with cuMemMap/cuMemUnmap so that the attention
// kernels — written against a single contiguous KVCache range — can use
// physical memory freed by dropped parameters without modification. An
// instance reproduces those semantics over its GPUs' aggregate HBM, counted
// in fixed-size physical chunks: a framework reservation (activations,
// workspace), the parameter region, the KVCache region, and unmapped
// memory. Executing a drop plan moves chunks from the parameter region into
// the KVCache region at layer granularity; restoration moves them back.
// Every remap costs simulated time, so it appears in the timeline (the paper
// measures ~5 ms per plan execution, negligible against inference time).
package instance

import (
	"fmt"

	"kunserve/internal/gpu"
	"kunserve/internal/model"
	"kunserve/internal/sim"
)

// DefaultReservedFraction is the HBM share kept for activations and
// framework workspace (vLLM's gpu_memory_utilization headroom).
const DefaultReservedFraction = 0.10

// chunkSize is the physical allocation granularity (CUDA VMM uses 2 MiB).
// Every region size is a whole number of chunks; requests round up.
const chunkSize = int64(2) << 20

// perChunkLatency is the simulated cost of one cuMemMap/cuMemUnmap call.
const perChunkLatency = 2 * sim.Microsecond

// minRemapLatency floors one remap; the paper reports ~5 ms per drop on its
// platform, dominated by driver entry and TLB shootdowns.
const minRemapLatency = 5 * sim.Millisecond

// Instance is one model replica's worth of GPUs.
type Instance struct {
	ID   int
	Spec *gpu.Spec
	// Model is the full model this instance can serve when holding all
	// layers.
	Model *model.Config

	// Physical chunks by use; they always sum to the instance's HBM.
	reserved, params, kv, unmapped int64

	layersHeld int
}

// New builds an instance with the full parameter copy resident and a
// KVCache region provisioned to kvProvision bytes (clamped to the available
// memory; <= 0 provisions everything). The paper's evaluation provisions
// KVCache relative to the average demand ("2.1x higher than the average
// requirement", §2.2) rather than always dedicating all free HBM. Memory
// the provision leaves unmapped is claimed by ExtendKV and RestoreLayers.
func New(id int, spec *gpu.Spec, cfg *model.Config, kvProvision int64) (*Instance, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	total := spec.HBMBytes * int64(cfg.GPUsPerInstance)
	reserved := int64(float64(total) * DefaultReservedFraction)
	params := cfg.ParamBytes()
	in := &Instance{ID: id, Spec: spec, Model: cfg, layersHeld: cfg.Layers,
		reserved: chunksFor(reserved), params: chunksFor(params)}
	in.unmapped = in.totalChunks() - in.reserved - in.params
	if params+reserved >= total || in.unmapped < 0 {
		return nil, fmt.Errorf("instance %d: model %s (%d GB params) does not fit %d GB HBM",
			id, cfg.Name, params/model.GiB, total/model.GiB)
	}
	in.kv = in.unmapped
	if kvProvision > 0 {
		in.kv = min(in.kv, chunksFor(kvProvision))
	}
	in.unmapped -= in.kv
	return in, nil
}

// chunksFor rounds bytes up to whole chunks.
func chunksFor(bytes int64) int64 {
	return (bytes + chunkSize - 1) / chunkSize
}

// remapLatency is the simulated cost of remapping n chunks in one pass.
func remapLatency(chunks int64) sim.Duration {
	return max(sim.Duration(chunks)*perChunkLatency, minRemapLatency)
}

// totalChunks is the instance's HBM in whole chunks (rounded down).
func (in *Instance) totalChunks() int64 {
	return in.Spec.HBMBytes * int64(in.Model.GPUsPerInstance) / chunkSize
}

// LayersHeld returns the number of resident layers.
func (in *Instance) LayersHeld() int { return in.layersHeld }

// HoldsFullCopy reports whether all layers are resident.
func (in *Instance) HoldsFullCopy() bool { return in.layersHeld == in.Model.Layers }

// KVBytes returns the KVCache region size.
func (in *Instance) KVBytes() int64 { return in.kv * chunkSize }

// ParamBytes returns the parameter region size.
func (in *Instance) ParamBytes() int64 { return in.params * chunkSize }

// FreeBytes returns unmapped physical memory available to ExtendKV.
func (in *Instance) FreeBytes() int64 { return in.unmapped * chunkSize }

// KVTokenCapacity returns how many tokens of KV this instance can hold when
// serving `layers` of the model's layers per token (its pipeline-stage
// share). For a full-copy instance pass Model.Layers.
func (in *Instance) KVTokenCapacity(layers int) int {
	if layers <= 0 {
		panic(fmt.Sprintf("instance %d: KVTokenCapacity(%d)", in.ID, layers))
	}
	perToken := in.Model.KVBytesPerTokenPerLayer() * int64(layers)
	return int(in.KVBytes() / perToken)
}

// DropLayers executes this instance's share of a drop plan: n layers are
// released and all of their physical memory is remapped into the KVCache
// region (§4.1). It returns the remap latency to charge to the simulation
// clock.
func (in *Instance) DropLayers(n int) (sim.Duration, error) {
	if n <= 0 {
		return 0, fmt.Errorf("instance %d: drop %d layers", in.ID, n)
	}
	if n > in.layersHeld {
		return 0, fmt.Errorf("instance %d: drop %d of %d held layers", in.ID, n, in.layersHeld)
	}
	c := chunksFor(in.LayerTransferBytes(n))
	if c > in.params {
		return 0, fmt.Errorf("instance %d: drop %d chunks, only %d mapped as parameters",
			in.ID, c, in.params)
	}
	in.params -= c
	in.kv += c
	in.layersHeld -= n
	return remapLatency(c), nil
}

// ExtendKV maps unmapped physical memory into the KVCache region.
func (in *Instance) ExtendKV(bytes int64) (sim.Duration, error) {
	c := chunksFor(bytes)
	if c > in.unmapped {
		return 0, fmt.Errorf("instance %d: extend KVCache by %d chunks, %d unmapped",
			in.ID, c, in.unmapped)
	}
	in.unmapped -= c
	in.kv += c
	return remapLatency(c), nil
}

// restoreSources returns where the chunks for n restored layers come from:
// unmapped memory is claimed first, and only the remainder is taken from
// the KVCache tail.
func (in *Instance) restoreSources(n int) (fromUnmapped, fromKV int64) {
	bytes := in.LayerTransferBytes(n)
	take := min(in.FreeBytes(), bytes)
	return chunksFor(take), chunksFor(bytes - take)
}

// KVBytesAfterRestore returns the KVCache region size once every missing
// layer is restored (the restore target), or 0 when the KVCache region
// cannot cover them.
func (in *Instance) KVBytesAfterRestore() int64 {
	_, fromKV := in.restoreSources(in.Model.Layers - in.layersHeld)
	return max(in.kv-fromKV, 0) * chunkSize
}

// RestoreLayers reverses a drop: memory for n layers is remapped as
// parameter memory (§4.4), per restoreSources. The caller must have ensured
// the KV tail is actually free (the pool shrank first). The returned
// duration covers only the remap; the parameter transfer itself (network
// pull or host reload) is charged separately by the restore engine.
func (in *Instance) RestoreLayers(n int) (sim.Duration, error) {
	if n <= 0 {
		return 0, fmt.Errorf("instance %d: restore %d layers", in.ID, n)
	}
	if in.layersHeld+n > in.Model.Layers {
		return 0, fmt.Errorf("instance %d: restore %d layers onto %d held (max %d)",
			in.ID, n, in.layersHeld, in.Model.Layers)
	}
	fromUnmapped, fromKV := in.restoreSources(n)
	if fromKV > in.kv {
		return 0, fmt.Errorf("instance %d: restore takes %d KVCache chunks, only %d mapped",
			in.ID, fromKV, in.kv)
	}
	in.unmapped -= fromUnmapped
	in.kv -= fromKV
	in.params += fromUnmapped + fromKV
	in.layersHeld += n
	// The unmapped claim and the KVCache remap are separate passes.
	var d sim.Duration
	if fromUnmapped > 0 {
		d += remapLatency(fromUnmapped)
	}
	if fromKV > 0 {
		d += remapLatency(fromKV)
	}
	return d, nil
}

// CheckInvariants verifies conservation of physical chunks.
func (in *Instance) CheckInvariants() error {
	for _, c := range [...]int64{in.reserved, in.params, in.kv, in.unmapped} {
		if c < 0 {
			return fmt.Errorf("instance %d: negative chunk count %d", in.ID, c)
		}
	}
	if sum := in.reserved + in.params + in.kv + in.unmapped; sum != in.totalChunks() {
		return fmt.Errorf("instance %d: leak: %d chunks in use or unmapped, %d total",
			in.ID, sum, in.totalChunks())
	}
	if in.layersHeld < 0 || in.layersHeld > in.Model.Layers {
		return fmt.Errorf("instance %d: holds %d of %d layers", in.ID, in.layersHeld, in.Model.Layers)
	}
	return nil
}

// PartialConfig returns the model config scaled to the instance's resident
// layers, for building stage timers.
func (in *Instance) PartialConfig() *model.Config {
	if in.HoldsFullCopy() {
		return in.Model
	}
	return in.Model.Partial(in.layersHeld)
}

// Timer builds a ground-truth timer for the instance's current shard.
func (in *Instance) Timer() *gpu.Timer {
	return gpu.NewTimer(in.Spec, in.PartialConfig(), in.Model.GPUsPerInstance)
}

// LayerTransferBytes returns the parameter bytes of n layers: what a drop
// frees and a restore pulls.
func (in *Instance) LayerTransferBytes(n int) int64 {
	return in.Model.ParamBytesPerLayer() * int64(n)
}
