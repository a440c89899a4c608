package orv

// mapTracker is the naive model FuzzTracker checks the tracker against:
// the tracker as it was written before elections went compact — three
// maps per election (candidates, votes, tallies) and tracker-wide
// confirmed / cemented / rootOf maps. It shares Weights, Vote and Outcome
// with the package.

import (
	"bytes"
	"errors"
	"fmt"
	"sort"

	"repro/internal/hashx"
	"repro/internal/keys"
)

// errMapCementConflict is the model's cement conflict: a confirmed block
// whose election another candidate won. A decided election never changes
// its winner, so no operation sequence reaches it.
var errMapCementConflict = errors.New("orv: conflicting block already cemented")

type mapRepVote struct {
	block hashx.Hash
	seq   uint64
}

type mapElection struct {
	candidates map[hashx.Hash]bool
	votes      map[keys.Address]mapRepVote
	tallies    map[hashx.Hash]uint64
	decided    bool
	winner     hashx.Hash
}

type mapTracker struct {
	weights   *Weights
	cfg       Config
	elections map[hashx.Hash]*mapElection
	confirmed map[hashx.Hash]bool
	cemented  map[hashx.Hash]bool
	rootOf    map[hashx.Hash]hashx.Hash
}

func newMapTracker(weights *Weights, cfg Config) *mapTracker {
	if cfg.QuorumFraction <= 0 || cfg.QuorumFraction >= 1 {
		cfg.QuorumFraction = 0.5
	}
	return &mapTracker{
		weights:   weights,
		cfg:       cfg,
		elections: make(map[hashx.Hash]*mapElection),
		confirmed: make(map[hashx.Hash]bool),
		cemented:  make(map[hashx.Hash]bool),
		rootOf:    make(map[hashx.Hash]hashx.Hash),
	}
}

func (t *mapTracker) QuorumWeight() uint64 {
	return uint64(t.cfg.QuorumFraction * float64(t.weights.OnlineTotal()))
}

func (t *mapTracker) StartElection(root hashx.Hash, candidates ...hashx.Hash) error {
	e, ok := t.elections[root]
	if !ok {
		e = &mapElection{
			candidates: make(map[hashx.Hash]bool),
			votes:      make(map[keys.Address]mapRepVote),
			tallies:    make(map[hashx.Hash]uint64),
		}
		t.elections[root] = e
	}
	if e.decided {
		return ErrAlreadyDecided
	}
	for _, c := range candidates {
		e.candidates[c] = true
	}
	return nil
}

func (t *mapTracker) HasElection(root hashx.Hash) bool {
	_, ok := t.elections[root]
	return ok
}

func (t *mapTracker) AdoptVotes(toRoot, fromRoot, candidate hashx.Hash) (Outcome, error) {
	from, ok := t.elections[fromRoot]
	if !ok {
		return Outcome{}, ErrUnknownRoot
	}
	to, ok := t.elections[toRoot]
	if !ok {
		return Outcome{}, ErrUnknownRoot
	}
	if !to.candidates[candidate] {
		return t.outcomeOf(to), fmt.Errorf("%w: %s", ErrNotCandidate, candidate)
	}
	reps := make([]keys.Address, 0, len(from.votes))
	for rep, rv := range from.votes {
		if rv.block == candidate {
			reps = append(reps, rep)
		}
	}
	sort.Slice(reps, func(i, j int) bool { return bytes.Compare(reps[i][:], reps[j][:]) < 0 })
	for _, rep := range reps {
		if to.decided {
			break
		}
		rv := from.votes[rep]
		weight := t.weights.WeightOf(rep)
		if weight == 0 {
			continue
		}
		if prior, voted := to.votes[rep]; voted {
			if rv.seq <= prior.seq {
				continue
			}
			to.tallies[prior.block] -= weight
		}
		to.votes[rep] = mapRepVote{block: candidate, seq: rv.seq}
		to.tallies[candidate] += weight
		if to.tallies[candidate] > t.QuorumWeight() {
			to.decided = true
			to.winner = candidate
			t.confirmed[candidate] = true
			t.rootOf[candidate] = toRoot
		}
	}
	return t.outcomeOf(to), nil
}

func (t *mapTracker) ProcessVote(root hashx.Hash, v *Vote) (Outcome, error) {
	e, ok := t.elections[root]
	if !ok {
		return Outcome{}, ErrUnknownRoot
	}
	if !v.Verify() {
		return Outcome{}, ErrBadVoteSig
	}
	weight := t.weights.WeightOf(v.Rep)
	if weight == 0 {
		return Outcome{}, fmt.Errorf("%w: %s", ErrNotRep, v.Rep)
	}
	if !e.candidates[v.Block] {
		return Outcome{}, fmt.Errorf("%w: %s", ErrNotCandidate, v.Block)
	}
	if e.decided {
		return t.outcomeOf(e), ErrAlreadyDecided
	}
	if prior, voted := e.votes[v.Rep]; voted {
		if v.Seq <= prior.seq {
			return t.outcomeOf(e), nil
		}
		e.tallies[prior.block] -= weight
	}
	e.votes[v.Rep] = mapRepVote{block: v.Block, seq: v.Seq}
	e.tallies[v.Block] += weight
	if e.tallies[v.Block] > t.QuorumWeight() {
		e.decided = true
		e.winner = v.Block
		t.confirmed[v.Block] = true
		t.rootOf[v.Block] = root
	}
	return t.outcomeOf(e), nil
}

func mapLeaderOf(e *mapElection) (hashx.Hash, uint64) {
	var lead hashx.Hash
	var best uint64
	for c, tally := range e.tallies {
		c := c
		if tally > best || (tally == best && tally > 0 && bytes.Compare(c[:], lead[:]) < 0) {
			best = tally
			lead = c
		}
	}
	return lead, best
}

func (t *mapTracker) outcomeOf(e *mapElection) Outcome {
	o := Outcome{Quorum: t.QuorumWeight()}
	if e.decided {
		o.Confirmed = true
		o.Winner = e.winner
		o.Tally = e.tallies[e.winner]
		return o
	}
	_, o.Tally = mapLeaderOf(e)
	return o
}

func (t *mapTracker) Leader(root hashx.Hash) (hashx.Hash, uint64, error) {
	e, ok := t.elections[root]
	if !ok {
		return hashx.Zero, 0, ErrUnknownRoot
	}
	lead, best := mapLeaderOf(e)
	return lead, best, nil
}

func (t *mapTracker) Confirmed(h hashx.Hash) bool { return t.confirmed[h] }

func (t *mapTracker) Winner(root hashx.Hash) (hashx.Hash, bool) {
	e, ok := t.elections[root]
	if !ok || !e.decided {
		return hashx.Zero, false
	}
	return e.winner, true
}

func (t *mapTracker) Cement(h hashx.Hash) error {
	if !t.confirmed[h] {
		return ErrNotConfirmed
	}
	if w, ok := t.Winner(t.rootOf[h]); ok && w != h {
		return errMapCementConflict
	}
	t.cemented[h] = true
	return nil
}

func (t *mapTracker) IsCemented(h hashx.Hash) bool { return t.cemented[h] }

func (t *mapTracker) Stats() Stats {
	s := Stats{Confirmed: len(t.confirmed), Cemented: len(t.cemented)}
	for _, e := range t.elections {
		if e.decided {
			s.Decided++
		} else {
			s.LiveElections++
		}
	}
	return s
}
