package isa

import "testing"

func TestPipelineSpecValidate(t *testing.T) {
	if err := FiveStage.Validate(); err != nil {
		t.Fatalf("FiveStage invalid: %v", err)
	}
	bad := []PipelineSpec{
		{},
		{Stages: 5, BranchResolveStage: 5, LoadUseStall: 1, FlushSlots: 2, FillLatency: 2, DrainLatency: 2},
		{Stages: 5, BranchResolveStage: 2, LoadUseStall: -1, FlushSlots: 2, FillLatency: 2, DrainLatency: 2},
		// FillLatency disagreeing with the branch resolution stage.
		{Stages: 5, BranchResolveStage: 2, LoadUseStall: 1, FlushSlots: 2, FillLatency: 3, DrainLatency: 2},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("spec %d (%+v) unexpectedly valid", i, s)
		}
	}
}

// TestTargetsDeclareFiveStage pins the current state of the backend registry:
// every registered target declares the five-stage geometry, so every target
// is accepted by the cycle-accurate core.
func TestTargetsDeclareFiveStage(t *testing.T) {
	for _, name := range Targets() {
		target, ok := TargetByName(name)
		if !ok {
			t.Fatalf("registry lists unknown target %q", name)
		}
		spec := target.Pipeline()
		if err := spec.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if spec != FiveStage {
			t.Errorf("%s: pipeline %+v, want FiveStage", name, spec)
		}
	}
}
