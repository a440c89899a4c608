package orv

// FuzzTracker: the compact tracker (slices per election, outcome on the
// election) against the map tracker it replaced (mapTracker,
// model_test.go), both over one weight table. A byte-coded program of
// StartElection, ProcessVote (switches, stale sequence numbers,
// non-candidates, decided elections, bad signatures, non-representatives),
// AdoptVotes, Leader, Cement, SetOnline and Update runs on both; every
// outcome and error, Stats() and every per-block and per-root query must
// agree after every step.

import (
	"fmt"
	"testing"

	"repro/internal/hashx"
	"repro/internal/keys"
)

// trackersAgree compares every query of the two trackers over hs.
func trackersAgree(tr *Tracker, m *mapTracker, hs []hashx.Hash) error {
	if a, b := tr.Stats(), m.Stats(); a != b {
		return fmt.Errorf("Stats %+v vs model %+v", a, b)
	}
	for _, h := range hs {
		if a, b := tr.Confirmed(h), m.Confirmed(h); a != b {
			return fmt.Errorf("Confirmed(%s) %v vs model %v", h, a, b)
		}
		if a, b := tr.IsCemented(h), m.IsCemented(h); a != b {
			return fmt.Errorf("IsCemented(%s) %v vs model %v", h, a, b)
		}
		if a, b := tr.HasElection(h), m.HasElection(h); a != b {
			return fmt.Errorf("HasElection(%s) %v vs model %v", h, a, b)
		}
		aw, aok := tr.Winner(h)
		bw, bok := m.Winner(h)
		if aw != bw || aok != bok {
			return fmt.Errorf("Winner(%s) %s/%v vs model %s/%v", h, aw, aok, bw, bok)
		}
		al, at, aerr := tr.Leader(h)
		bl, bt, berr := m.Leader(h)
		if al != bl || at != bt || aerr != berr {
			return fmt.Errorf("Leader(%s) %s/%d/%v vs model %s/%d/%v", h, al, at, aerr, bl, bt, berr)
		}
	}
	return nil
}

func FuzzTracker(f *testing.F) {
	// Triples of (op, a, b).
	f.Add([]byte{0, 0, 8, 1, 0, 0, 1, 6, 0, 1, 12, 0, 4, 0, 0})
	f.Add([]byte{0, 4, 24, 1, 4, 1, 1, 10, 2, 1, 16, 6, 1, 4, 5, 3, 4, 0, 2, 4, 1, 4, 1, 0})
	f.Add([]byte{0, 0, 8, 0, 1, 16, 1, 0, 0, 1, 7, 1, 0, 5, 24, 2, 5, 0, 2, 5, 1, 4, 0, 0, 4, 1, 0})
	f.Add([]byte{5, 3, 0, 1, 0, 128, 6, 2, 7, 0, 2, 8, 1, 2, 0, 1, 14, 25, 3, 2, 0, 5, 3, 1})
	// A block confirmed in its own election and again in a fork election,
	// cemented in between.
	f.Add([]byte{0, 1, 16, 1, 1, 1, 1, 7, 1, 1, 19, 1, 4, 1, 0, 0, 4, 24, 2, 4, 1, 2, 4, 1, 1, 16, 1, 4, 1, 0})

	ring := keys.NewRing("fuzz-tracker", 5)
	// Blocks 0..3 can be candidates; block 4 never is. Roots are the four
	// candidate blocks (plain elections) and two hashes no block has
	// (fork elections).
	var blocks [5]hashx.Hash
	for i := range blocks {
		blocks[i] = hashx.Sum([]byte{'b', byte(i)})
	}
	roots := []hashx.Hash{blocks[0], blocks[1], blocks[2], blocks[3], hashx.Sum([]byte("fork/a")), hashx.Sum([]byte("fork/b"))}
	queried := append(append([]hashx.Hash(nil), roots...), blocks[4])
	// votes[rep][block][seq-1], signed once: ring key 4 holds no weight.
	var votes [5][5][4]*Vote
	for rep := range votes {
		for b := range votes[rep] {
			for s := range votes[rep][b] {
				votes[rep][b][s] = NewVote(ring.Pair(rep), blocks[b], uint64(s+1))
			}
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		w := NewWeights(map[keys.Address]uint64{
			ring.Addr(0): 10, ring.Addr(1): 20, ring.Addr(2): 30, ring.Addr(3): 40,
		})
		cfg := Config{QuorumFraction: 0.5}
		tr, m := NewTracker(w, cfg), newMapTracker(w, cfg)
		outcomes := func(what string, a Outcome, aerr error, b Outcome, berr error) {
			if a != b || fmt.Sprint(aerr) != fmt.Sprint(berr) {
				t.Fatalf("%s: %+v/%v vs model %+v/%v", what, a, aerr, b, berr)
			}
		}
		const maxOps = 40
		for i, ops := 0, 0; i+2 < len(data) && ops < maxOps; i, ops = i+3, ops+1 {
			a, b := data[i+1], data[i+2]
			root := roots[int(a)%len(roots)]
			switch data[i] % 7 {
			case 0: // open or extend an election; b's low bits pick candidates
				var cands []hashx.Hash
				for c := 0; c < 4; c++ {
					if b>>(c+2)&1 != 0 {
						cands = append(cands, blocks[c])
					}
				}
				if x, y := fmt.Sprint(tr.StartElection(root, cands...)), fmt.Sprint(m.StartElection(root, cands...)); x != y {
					t.Fatalf("StartElection: %s vs model %s", x, y)
				}
			case 1: // a vote: rep, block, seq, and with b's top bit a bad signature
				v := votes[int(a/6)%5][int(b)%5][int(b/5)%4]
				if b&0x80 != 0 {
					sig := append([]byte(nil), v.Sig()...)
					sig[int(b)%len(sig)] ^= 0x10
					v = v.WithSig(sig)
				}
				x, xerr := tr.ProcessVote(root, v)
				y, yerr := m.ProcessVote(root, v)
				outcomes("ProcessVote", x, xerr, y, yerr)
			case 2: // adopt one candidate's votes from another election
				from, cand := roots[int(a/6)%len(roots)], blocks[int(b)%5]
				x, xerr := tr.AdoptVotes(root, from, cand)
				y, yerr := m.AdoptVotes(root, from, cand)
				outcomes("AdoptVotes", x, xerr, y, yerr)
			case 3: // Leader is compared for every root after each step
			case 4: // cement a block or a root
				h := queried[int(a)%len(queried)]
				if x, y := fmt.Sprint(tr.Cement(h)), fmt.Sprint(m.Cement(h)); x != y {
					t.Fatalf("Cement: %s vs model %s", x, y)
				}
			case 5: // a representative goes off- or online
				w.SetOnline(ring.Addr(int(a)%5), b&1 != 0)
			case 6: // re-delegation, down to zero weight
				w.Update(ring.Addr(int(a)%5), uint64(b%50))
			}
			if err := trackersAgree(tr, m, queried); err != nil {
				t.Fatalf("step %d (op %d): %v", ops, data[i]%7, err)
			}
		}
	})
}
