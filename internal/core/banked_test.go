package core

import (
	"testing"

	"portsim/internal/config"
	"portsim/internal/stats"
)

func bankedPorts(banks int) config.Ports {
	p := singleNarrow()
	p.Banks = banks
	return p
}

func TestBankedParallelAccessDistinctBanks(t *testing.T) {
	p, _ := newPort(t, bankedPorts(4))
	p.BeginCycle(0)
	// Lines 0x1000 and 0x1020 fall in different banks (consecutive lines
	// interleave across banks).
	if !p.TryLoad(0, 0x1000, 8).Accepted {
		t.Fatal("first load refused")
	}
	if !p.TryLoad(0, 0x1020, 8).Accepted {
		t.Fatal("second load to a different bank refused")
	}
}

func TestBankedConflictSameBank(t *testing.T) {
	p, _ := newPort(t, bankedPorts(4))
	p.BeginCycle(0)
	if !p.TryLoad(0, 0x1000, 8).Accepted {
		t.Fatal("first load refused")
	}
	// Same line => same bank: must conflict even though other banks idle.
	if p.TryLoad(0, 0x1008, 8).Accepted {
		t.Fatal("same-bank load accepted in the same cycle")
	}
	if p.BankConflicts() != 1 {
		t.Errorf("bank conflicts = %d, want 1", p.BankConflicts())
	}
	// 4 banks apart (4 lines * 32B = 128): also same bank.
	if p.TryLoad(0, 0x1000+128, 8).Accepted {
		t.Fatal("stride-aliased load accepted")
	}
	p.EndCycle(0)
	p.FinishCycle()
	p.BeginCycle(1)
	if !p.TryLoad(1, 0x1008, 8).Accepted {
		t.Fatal("conflicting load refused on the next cycle")
	}
}

func TestBankedUpToBanksPerCycle(t *testing.T) {
	p, _ := newPort(t, bankedPorts(4))
	p.BeginCycle(0)
	for i := uint64(0); i < 4; i++ {
		if !p.TryLoad(0, 0x1000+i*32, 8).Accepted {
			t.Fatalf("load %d to its own bank refused", i)
		}
	}
	if p.TryLoad(0, 0x2000, 8).Accepted {
		t.Fatal("fifth access accepted with 4 banks")
	}
}

func TestBankedStoreDrainRespectsBanks(t *testing.T) {
	p, _ := newPort(t, bankedPorts(2))
	p.BeginCycle(0)
	// Occupy bank 0 with a load; a store drain to bank 0 must wait, even
	// though bank 1 is idle.
	if !p.TryLoad(0, 0x1000, 8).Accepted { // bank 0 (line 0x1000/32 = even)
		t.Fatal("load refused")
	}
	if !p.TryCommitStore(0, 0x2000, 8) { // also bank 0 (0x2000/32 even)
		t.Fatal("store refused")
	}
	p.EndCycle(0)
	p.FinishCycle()
	if p.StoreBuffer().Drains() != 0 {
		t.Error("store drained into a busy bank")
	}
	p.BeginCycle(1)
	p.EndCycle(1)
	if p.StoreBuffer().Drains() != 1 {
		t.Error("store did not drain once its bank freed")
	}
}

func TestBankedRefillOccupiesItsBank(t *testing.T) {
	p, _ := newPort(t, bankedPorts(2))
	p.BeginCycle(0)
	r := p.TryLoad(0, 0x1000, 8) // miss: refill later owes bank 0
	if !r.Accepted {
		t.Fatal("load refused")
	}
	p.EndCycle(0)
	p.FinishCycle()
	// At the fill-arrival cycle, bank 0 is consumed by the array write
	// but bank 1 remains usable.
	fillCycle := r.Ready
	p.BeginCycle(fillCycle)
	if p.TryLoad(fillCycle, 0x1008, 8).Accepted { // bank 0: busy with refill
		t.Error("bank accepted a load while writing its refill")
	}
	if !p.TryLoad(fillCycle, 0x1020, 8).Accepted { // bank 1: idle
		t.Error("idle bank refused a load during another bank's refill")
	}
}

func TestBankedUtilisationDenominator(t *testing.T) {
	p, _ := newPort(t, bankedPorts(4))
	p.BeginCycle(0)
	p.TryLoad(0, 0x1000, 8)
	p.TryLoad(0, 0x1020, 8)
	p.EndCycle(0)
	p.FinishCycle()
	s := report(p)
	slots := SlotsPerCycle(p.cfg)
	if got := stats.SafeRatio(float64(s.Get(stats.PortGrants)), float64(s.Get(stats.PortCycles))*float64(slots)); got != 0.5 {
		t.Errorf("utilisation = %v over %d slots, want 0.5 (2 of 4 banks)", got, slots)
	}
}

func TestBankedConfigValidation(t *testing.T) {
	m := config.Baseline()
	m.Ports.Banks = 3
	if err := m.Validate(); err == nil {
		t.Error("non-power-of-two banks accepted")
	}
	m = config.Baseline()
	m.Ports.Banks = 4
	m.Ports.Count = 2
	if err := m.Validate(); err == nil {
		t.Error("banking combined with multi-porting accepted")
	}
	m = config.Banked(8)
	if err := m.Validate(); err != nil {
		t.Errorf("banked preset invalid: %v", err)
	}
}
