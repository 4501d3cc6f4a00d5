package instance

import (
	"testing"
	"testing/quick"

	"kunserve/internal/gpu"
	"kunserve/internal/model"
	"kunserve/internal/sim"
)

func newInst(t *testing.T) *Instance {
	t.Helper()
	in, err := New(0, gpu.A800(), model.Qwen25_14B(), 0)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// newProvisioned builds the 14B instance with only kvGiB of KVCache mapped,
// leaving the rest of its HBM unmapped.
func newProvisioned(t *testing.T, kvGiB int64) *Instance {
	t.Helper()
	in, err := New(0, gpu.A800(), model.Qwen25_14B(), kvGiB*model.GiB)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// counts snapshots the chunk counts for before/after comparisons.
func (in *Instance) counts() [5]int64 {
	return [5]int64{in.reserved, in.params, in.kv, in.unmapped, int64(in.layersHeld)}
}

func TestNewInstanceLayout(t *testing.T) {
	in := newInst(t)
	if !in.HoldsFullCopy() || in.LayersHeld() != 48 {
		t.Fatal("fresh instance layer accounting")
	}
	// §2.2: ~45 GB of KVCache per GPU for the 14B model on 80 GB.
	kvGB := float64(in.KVBytes()) / float64(model.GiB)
	if kvGB < 40 || kvGB > 50 {
		t.Errorf("KV region = %.1f GB, want ~45", kvGB)
	}
	if in.FreeBytes() != 0 {
		t.Errorf("unprovisioned instance leaves %d bytes unmapped", in.FreeBytes())
	}
	if in.ParamBytes() != chunksFor(in.Model.ParamBytes())*chunkSize {
		t.Errorf("params = %d, want %d rounded up to chunks", in.ParamBytes(), in.Model.ParamBytes())
	}
	if err := in.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestProvisionLeavesRestUnmapped(t *testing.T) {
	full := newInst(t)
	in := newProvisioned(t, 12)
	if in.KVBytes() != 12*model.GiB {
		t.Errorf("KV = %d, want the 12 GiB provision", in.KVBytes())
	}
	if in.KVBytes()+in.FreeBytes() != full.KVBytes() {
		t.Errorf("KV %d + unmapped %d != unprovisioned KV %d",
			in.KVBytes(), in.FreeBytes(), full.KVBytes())
	}
	if err := in.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// A provision above the available memory is clamped to it.
	big := newProvisioned(t, 1000)
	if big.KVBytes() != full.KVBytes() || big.FreeBytes() != 0 {
		t.Errorf("oversized provision: KV %d, unmapped %d", big.KVBytes(), big.FreeBytes())
	}
}

func TestRequestsRoundUpToChunks(t *testing.T) {
	in, err := New(0, gpu.A800(), model.Qwen25_14B(), chunkSize+1)
	if err != nil {
		t.Fatal(err)
	}
	if in.KVBytes() != 2*chunkSize {
		t.Fatalf("provision of one chunk + 1 byte maps %d, want 2 chunks", in.KVBytes())
	}
	if _, err := in.ExtendKV(chunkSize + 1); err != nil {
		t.Fatal(err)
	}
	if in.KVBytes() != 4*chunkSize {
		t.Fatalf("extend by one chunk + 1 byte: KV = %d, want 4 chunks", in.KVBytes())
	}
	if err := in.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestExtendKVClaimsUnmapped(t *testing.T) {
	in := newProvisioned(t, 2)
	params, unmapped := in.ParamBytes(), in.FreeBytes()
	if _, err := in.ExtendKV(3 * model.GiB); err != nil {
		t.Fatal(err)
	}
	if in.KVBytes() != 5*model.GiB {
		t.Errorf("after extend KV = %d, want 5 GiB", in.KVBytes())
	}
	if unmapped-in.FreeBytes() != 3*model.GiB || in.ParamBytes() != params {
		t.Errorf("extend took %d unmapped and changed params %d -> %d",
			unmapped-in.FreeBytes(), params, in.ParamBytes())
	}
	if err := in.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestExtendKVErrors(t *testing.T) {
	if _, err := newInst(t).ExtendKV(chunkSize); err == nil {
		t.Error("extend with nothing unmapped accepted")
	}
	in := newProvisioned(t, 12)
	before := in.counts()
	if _, err := in.ExtendKV(100 * model.GiB); err == nil {
		t.Error("extend beyond unmapped accepted")
	}
	if in.counts() != before {
		t.Errorf("failed extend changed %v to %v", before, in.counts())
	}
}

func TestRemapLatencyScalesWithChunks(t *testing.T) {
	in := newProvisioned(t, 4)
	small, err := in.ExtendKV(chunkSize)
	if err != nil {
		t.Fatal(err)
	}
	if small != minRemapLatency {
		t.Errorf("one-chunk extend latency = %v, want floor %v", small, minRemapLatency)
	}
	// 20 GiB = 10240 chunks at 2 µs each: 20.48 ms, above the floor.
	big, err := in.ExtendKV(20 * model.GiB)
	if err != nil {
		t.Fatal(err)
	}
	if want := 20480 * sim.Microsecond; big != want {
		t.Errorf("20 GiB extend latency = %v, want %v", big, want)
	}
}

func TestModelTooBigRejected(t *testing.T) {
	cfg := model.Qwen25_72B()
	cfg.GPUsPerInstance = 1 // 136 GB params on one 80 GB GPU
	if _, err := New(0, gpu.A800(), cfg, 0); err == nil {
		t.Fatal("oversized model accepted")
	}
}

func TestInvalidConfigsRejected(t *testing.T) {
	bad := model.Qwen25_14B()
	bad.Layers = 0
	if _, err := New(0, gpu.A800(), bad, 0); err == nil {
		t.Error("invalid model accepted")
	}
	badSpec := gpu.A800()
	badSpec.HBMBytes = 0
	if _, err := New(0, badSpec, model.Qwen25_14B(), 0); err == nil {
		t.Error("invalid spec accepted")
	}
}

func TestSubChunkHBMRejected(t *testing.T) {
	tiny := gpu.A800()
	tiny.HBMBytes = chunkSize - 1
	if _, err := New(0, tiny, model.Qwen25_14B(), 0); err == nil {
		t.Error("sub-chunk HBM accepted")
	}
}

func TestMultiGPUInstanceAggregatesHBM(t *testing.T) {
	in, err := New(0, gpu.H800(), model.Qwen25_72B(), 0)
	if err != nil {
		t.Fatal(err)
	}
	// 4 x 80 GB - 10% reserve - 136 GB params ≈ 152 GB KV.
	kvGB := float64(in.KVBytes()) / float64(model.GiB)
	if kvGB < 140 || kvGB > 165 {
		t.Errorf("72B KV region = %.1f GB", kvGB)
	}
}

func TestDropLayersGrowsKV(t *testing.T) {
	in := newInst(t)
	kvBefore := in.KVBytes()
	capBefore := in.KVTokenCapacity(in.Model.Layers)
	d, err := in.DropLayers(24)
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 {
		t.Error("drop latency missing")
	}
	if in.LayersHeld() != 24 || in.HoldsFullCopy() {
		t.Fatal("layer accounting after drop")
	}
	freed := in.Model.ParamBytesPerLayer() * 24
	growth := in.KVBytes() - kvBefore
	if growth < freed-chunkSize || growth > freed+chunkSize {
		t.Errorf("KV grew %d, want ~%d", growth, freed)
	}
	// Serving only 24 layers per token, capacity per token halves and the
	// region grew: capacity (in tokens at 24-layer share) must exceed 2x
	// the old full-model capacity.
	capAfter := in.KVTokenCapacity(in.LayersHeld())
	if capAfter <= 2*capBefore {
		t.Errorf("token capacity %d -> %d, want > 2x", capBefore, capAfter)
	}
	if err := in.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// The §4.1 flow: drop parameters, map the freed chunks into the KVCache
// tail; restore is the inverse move.
func TestDropFlowMovesParamsToKV(t *testing.T) {
	in := newInst(t)
	kvBefore, paramsBefore := in.KVBytes(), in.ParamBytes()
	d, err := in.DropLayers(24)
	if err != nil {
		t.Fatal(err)
	}
	moved := chunksFor(in.Model.ParamBytesPerLayer()*24) * chunkSize
	if d != remapLatency(moved/chunkSize) || d < minRemapLatency {
		t.Errorf("drop latency = %v", d)
	}
	if in.KVBytes()-kvBefore != moved || paramsBefore-in.ParamBytes() != moved {
		t.Errorf("KV grew %d and params shrank %d, want both %d",
			in.KVBytes()-kvBefore, paramsBefore-in.ParamBytes(), moved)
	}
	if err := in.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if _, err := in.RestoreLayers(24); err != nil {
		t.Fatal(err)
	}
	if in.KVBytes() != kvBefore || in.ParamBytes() != paramsBefore {
		t.Errorf("after restore KV %d, params %d, want %d, %d",
			in.KVBytes(), in.ParamBytes(), kvBefore, paramsBefore)
	}
}

func TestRestoreLayersRoundTrip(t *testing.T) {
	in := newInst(t)
	before := in.counts()
	if _, err := in.DropLayers(24); err != nil {
		t.Fatal(err)
	}
	if _, err := in.RestoreLayers(24); err != nil {
		t.Fatal(err)
	}
	if !in.HoldsFullCopy() {
		t.Fatal("restore did not return to full copy")
	}
	if in.counts() != before {
		t.Errorf("after drop+restore %v, want %v", in.counts(), before)
	}
}

// Restoration claims unmapped memory before it takes the KVCache tail, and
// each source costs its own remap pass.
func TestRestoreClaimsUnmappedFirst(t *testing.T) {
	in := newProvisioned(t, 12)
	if _, err := in.DropLayers(24); err != nil {
		t.Fatal(err)
	}
	kv, unmapped := in.KVBytes(), in.FreeBytes()
	d, err := in.RestoreLayers(24)
	if err != nil {
		t.Fatal(err)
	}
	if in.KVBytes() != kv {
		t.Errorf("restore took KVCache (%d -> %d) with %d unmapped", kv, in.KVBytes(), unmapped)
	}
	if need := chunksFor(in.LayerTransferBytes(24)) * chunkSize; unmapped-in.FreeBytes() != need {
		t.Errorf("restore claimed %d unmapped, want %d", unmapped-in.FreeBytes(), need)
	}
	if d != remapLatency(chunksFor(in.LayerTransferBytes(24))) {
		t.Errorf("single-source restore latency = %v", d)
	}

	// Leave one chunk unmapped: the rest comes out of the KVCache tail.
	in = newProvisioned(t, 12)
	if _, err := in.DropLayers(24); err != nil {
		t.Fatal(err)
	}
	if _, err := in.ExtendKV(in.FreeBytes() - chunkSize); err != nil {
		t.Fatal(err)
	}
	kv = in.KVBytes()
	d, err = in.RestoreLayers(24)
	if err != nil {
		t.Fatal(err)
	}
	fromKV := chunksFor(in.LayerTransferBytes(24) - chunkSize)
	if in.FreeBytes() != 0 || kv-in.KVBytes() != fromKV*chunkSize {
		t.Errorf("split restore: unmapped %d, KV took %d, want 0 and %d",
			in.FreeBytes(), kv-in.KVBytes(), fromKV*chunkSize)
	}
	if want := remapLatency(1) + remapLatency(fromKV); d != want {
		t.Errorf("two-source restore latency = %v, want %v", d, want)
	}
	if err := in.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// Property: the restore target KVBytesAfterRestore predicts is exactly the
// KVCache region RestoreLayers leaves, whatever mix of unmapped and
// KVCache memory the restoration draws on.
func TestKVBytesAfterRestoreMatchesRestore(t *testing.T) {
	f := func(drop uint8, extendGiB uint8) bool {
		in, err := New(0, gpu.A800(), model.Qwen25_14B(), 12*model.GiB)
		if err != nil {
			return false
		}
		if _, err := in.DropLayers(1 + int(drop)%47); err != nil {
			return false
		}
		in.ExtendKV(min(int64(extendGiB%40)*model.GiB, in.FreeBytes()))
		want := in.KVBytesAfterRestore()
		if _, err := in.RestoreLayers(in.Model.Layers - in.LayersHeld()); err != nil {
			return false
		}
		return in.KVBytes() == want && in.KVBytesAfterRestore() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDropRestoreErrors(t *testing.T) {
	in := newInst(t)
	if _, err := in.DropLayers(0); err == nil {
		t.Error("drop 0 accepted")
	}
	if _, err := in.DropLayers(-1); err == nil {
		t.Error("drop -1 accepted")
	}
	if _, err := in.DropLayers(49); err == nil {
		t.Error("drop beyond held accepted")
	}
	if _, err := in.RestoreLayers(1); err == nil {
		t.Error("restore beyond full accepted")
	}
	if _, err := in.RestoreLayers(0); err == nil {
		t.Error("restore 0 accepted")
	}
}

// A restore whose KVCache share exceeds the KVCache region fails and
// leaves the instance as it was.
func TestFailedRemapLeavesStateUnchanged(t *testing.T) {
	in := newInst(t)
	if _, err := in.DropLayers(24); err != nil {
		t.Fatal(err)
	}
	// Hide all but one KVCache chunk, as if the pool still held its tail.
	in.reserved += in.kv - 1
	in.kv = 1
	before := in.counts()
	if _, err := in.RestoreLayers(24); err == nil {
		t.Fatal("restore beyond the KVCache region accepted")
	}
	if in.counts() != before {
		t.Errorf("failed restore changed %v to %v", before, in.counts())
	}
}

func TestCheckInvariantsDetectsLeak(t *testing.T) {
	in := newInst(t)
	in.kv++
	if in.CheckInvariants() == nil {
		t.Error("extra chunk not detected")
	}
	in.kv -= 2
	in.unmapped = -1
	if in.CheckInvariants() == nil {
		t.Error("negative count not detected")
	}
}

func TestPartialConfigAndTimer(t *testing.T) {
	in := newInst(t)
	if in.PartialConfig() != in.Model {
		t.Error("full copy should return the model itself")
	}
	fullTime := in.Timer().PrefillTime(0, 1024)
	if _, err := in.DropLayers(24); err != nil {
		t.Fatal(err)
	}
	pc := in.PartialConfig()
	if pc.Layers != 24 {
		t.Fatalf("partial layers = %d", pc.Layers)
	}
	halfTime := in.Timer().PrefillTime(0, 1024)
	if halfTime >= fullTime {
		t.Error("half-model stage not faster")
	}
}

func TestKVTokenCapacityPanicsOnBadLayers(t *testing.T) {
	in := newInst(t)
	defer func() {
		if recover() == nil {
			t.Error("KVTokenCapacity(0) did not panic")
		}
	}()
	in.KVTokenCapacity(0)
}

func TestLayerTransferBytes(t *testing.T) {
	in := newInst(t)
	if got := in.LayerTransferBytes(24); got != in.Model.ParamBytesPerLayer()*24 {
		t.Errorf("transfer bytes = %d", got)
	}
}

// Property: any drop/restore sequence preserves memory invariants and layer
// bounds.
func TestPropertyDropRestore(t *testing.T) {
	f := func(ops []int8) bool {
		in := newInst(t)
		for _, op := range ops {
			n := int(op)
			if n > 0 {
				in.DropLayers(n)
			} else if n < 0 {
				in.RestoreLayers(-n)
			}
			if in.LayersHeld() < 0 || in.LayersHeld() > in.Model.Layers {
				return false
			}
			if err := in.CheckInvariants(); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: any sequence of drops, restores and KVCache extensions, failed
// ones included, conserves physical chunks.
func TestPropertyConservation(t *testing.T) {
	f := func(ops []int8) bool {
		in, err := New(0, gpu.A800(), model.Qwen25_14B(), 12*model.GiB)
		if err != nil {
			return false
		}
		for _, op := range ops {
			n := int(op)
			switch {
			case n > 0 && n%4 == 0:
				in.ExtendKV(int64(n) * chunkSize * 64)
			case n > 0:
				in.DropLayers(n)
			case n < 0:
				in.RestoreLayers(-n)
			}
			if err := in.CheckInvariants(); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
