package eval

import (
	"context"
	"testing"

	"l2q/internal/synth"
)

func TestNewEnvsShareCorpus(t *testing.T) {
	cfg := TestConfig(synth.DomainResearchers)
	envs, err := NewEnvs(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(envs) != 3 {
		t.Fatalf("envs = %d", len(envs))
	}
	if envs[0].G != envs[1].G || envs[0].Engine != envs[1].Engine {
		t.Fatal("corpus/engine must be shared across splits")
	}
	// Splits must differ (with overwhelming probability).
	same := true
	for i := range envs[0].TestIDs {
		if i < len(envs[1].TestIDs) && envs[0].TestIDs[i] != envs[1].TestIDs[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("two splits drew identical test sets")
	}
	// Classifier sets are per split.
	if envs[0].Cls == envs[1].Cls {
		t.Fatal("classifiers must be retrained per split")
	}
}

func TestNewEnvsDefaultsToOne(t *testing.T) {
	cfg := TestConfig(synth.DomainResearchers)
	envs, err := NewEnvs(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(envs) != 1 {
		t.Fatalf("envs = %d", len(envs))
	}
}

func TestRunMethodOverSplits(t *testing.T) {
	cfg := TestConfig(synth.DomainResearchers)
	cfg.NumTest = 3
	envs, err := NewEnvs(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := RunMethodOverSplits(context.Background(), envs, MethodMQ, 2, -1)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Splits != 2 {
		t.Fatalf("splits = %d", stats.Splits)
	}
	if stats.Mean.F < 0 || stats.Std.F < 0 {
		t.Fatalf("bad stats: %+v", stats)
	}
	if _, err := RunMethodOverSplits(context.Background(), nil, MethodMQ, 2, -1); err == nil {
		t.Fatal("empty splits accepted")
	}
}
