package core

import (
	"testing"

	"prepuc/internal/nvm"
	"prepuc/internal/sim"
	"prepuc/internal/uc"
)

func TestSnapshotIndexInvariants(t *testing.T) {
	const workers, perWorker = 8, 80
	cfg := hashCfg(Buffered, workers, 256, 64)
	w := newWorld(t, cfg, nvm.Config{Costs: sim.UnitCosts()}, 401)
	w.runWorkers(workers, 0, func(th *sim.Thread, tid int) {
		for i := uint64(0); i < perWorker; i++ {
			w.p.Execute(th, tid, uc.Insert(uint64(tid)*1000+i, i))
		}
	})
	w.query(func(th *sim.Thread) {
		s := w.p.Snapshot(th)
		total := uint64(workers * perWorker)
		if s.LogTail != total {
			t.Errorf("LogTail = %d, want %d", s.LogTail, total)
		}
		if s.CompletedTail > s.LogTail {
			t.Errorf("CompletedTail %d > LogTail %d", s.CompletedTail, s.LogTail)
		}
		if s.CompletedTail != total {
			t.Errorf("CompletedTail = %d after quiescence, want %d", s.CompletedTail, total)
		}
		for i, lt := range s.LocalTails {
			if lt > s.LogTail {
				t.Errorf("replica %d localTail %d > LogTail", i, lt)
			}
		}
		for i, pt := range s.PTails {
			if pt > s.CompletedTail {
				t.Errorf("pReplica %d tail %d > CompletedTail %d", i, pt, s.CompletedTail)
			}
		}
		if len(s.PTails) != 2 {
			t.Errorf("PTails = %v, want 2 persistent replicas", s.PTails)
		}
		// logMin invariant: reusable horizon never admits unapplied entries.
		lowest := s.LocalTails[0]
		for _, lt := range append(append([]uint64{}, s.LocalTails...), s.PTails...) {
			if lt < lowest {
				lowest = lt
			}
		}
		if s.LogMin > lowest+cfg.LogSize-1 {
			t.Errorf("LogMin %d beyond lowest localTail %d + size − 1", s.LogMin, lowest)
		}
	})
}

func TestSnapshotVolatileMode(t *testing.T) {
	w := newWorld(t, hashCfg(Volatile, 4, 128, 0), nvm.Config{Costs: sim.UnitCosts()}, 402)
	w.runWorkers(4, 0, func(th *sim.Thread, tid int) {
		w.p.Execute(th, tid, uc.Insert(uint64(tid), 1))
	})
	w.query(func(th *sim.Thread) {
		s := w.p.Snapshot(th)
		if s.FlushBoundary != 0 || len(s.PTails) != 0 {
			t.Errorf("volatile snapshot has persistence fields: %+v", s)
		}
		if s.LogTail != 4 {
			t.Errorf("LogTail = %d, want 4", s.LogTail)
		}
	})
}
