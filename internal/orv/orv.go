// Package orv implements Open Representative Voting, Nano's consensus
// (paper §III-B): accounts delegate their balance to representatives,
// whose votes are "weighted: a representative's weight is calculated as
// the sum of all balances for accounts that chose this representative".
// Conflicts are decided by weighted majority — "the winning transaction is
// the one that gained the most votes with regards to the voters weight" —
// while ordinary blocks are confirmed by the automatic first-seen votes of
// §IV-B. Confirmed blocks can be cemented, the planned finality feature
// the paper mentions ("block-cementing … will prevent transactions from
// being rolled back").
//
// The package is deliberately decoupled from the lattice: it tallies votes
// over abstract block hashes and a weight table, so the same machinery
// drives unit tests, the netsim network and the consensus experiments.
package orv

import (
	"bytes"
	"crypto/ed25519"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"repro/internal/hashx"
	"repro/internal/keys"
)

// Weights is the representative weight table with online tracking: quorum
// is measured against the currently online voting weight, as in Nano.
type Weights struct {
	weight      map[keys.Address]uint64
	online      map[keys.Address]bool
	total       uint64
	onlineTotal uint64
}

// NewWeights builds a table from a rep→weight map (see
// lattice.RepWeights). All representatives start online.
func NewWeights(byRep map[keys.Address]uint64) *Weights {
	w := &Weights{
		weight: make(map[keys.Address]uint64, len(byRep)),
		online: make(map[keys.Address]bool, len(byRep)),
	}
	for rep, wt := range byRep {
		if wt == 0 {
			continue
		}
		w.weight[rep] = wt
		w.online[rep] = true
		w.total += wt
		w.onlineTotal += wt
	}
	return w
}

// WeightOf returns a representative's voting weight.
func (w *Weights) WeightOf(rep keys.Address) uint64 { return w.weight[rep] }

// Total returns the total delegated weight.
func (w *Weights) Total() uint64 { return w.total }

// OnlineTotal returns the online delegated weight, the quorum base.
func (w *Weights) OnlineTotal() uint64 { return w.onlineTotal }

// SetOnline marks a representative on- or offline, adjusting the quorum
// base (offline representatives model §IV-B's real-world vote loss).
func (w *Weights) SetOnline(rep keys.Address, online bool) {
	cur, known := w.online[rep]
	if !known || cur == online {
		return
	}
	w.online[rep] = online
	if online {
		w.onlineTotal += w.weight[rep]
	} else {
		w.onlineTotal -= w.weight[rep]
	}
}

// IsOnline reports whether the representative is marked online.
func (w *Weights) IsOnline(rep keys.Address) bool { return w.online[rep] }

// Update replaces a representative's weight (after re-delegation via a
// Change block) keeping totals consistent.
func (w *Weights) Update(rep keys.Address, newWeight uint64) {
	old := w.weight[rep]
	wasOnline, known := w.online[rep]
	if !known {
		if newWeight == 0 {
			return
		}
		w.weight[rep] = newWeight
		w.online[rep] = true
		w.total += newWeight
		w.onlineTotal += newWeight
		return
	}
	w.total += newWeight - old
	if wasOnline {
		w.onlineTotal += newWeight - old
	}
	if newWeight == 0 {
		delete(w.weight, rep)
		delete(w.online, rep)
		return
	}
	w.weight[rep] = newWeight
}

// Vote is a representative's signed statement for one block. Seq lets a
// representative switch its vote during conflict resolution: higher
// sequence numbers supersede lower ones.
type Vote struct {
	Rep    keys.Address
	Block  hashx.Hash
	Seq    uint64
	PubKey ed25519.PublicKey
	Sig    []byte

	// verified holds the signature verdict (see keys.SigMemo): a
	// broadcast vote is one shared pointer delivered to every node, and
	// NewVote seeds it, so an honest vote never costs an ed25519 check.
	verified keys.SigMemo
}

// voteWireSize models the network cost of one vote message.
const voteWireSize = keys.AddressSize + hashx.Size + 8 + ed25519.PublicKeySize + ed25519.SignatureSize

// EncodedSize returns the modeled wire size of the vote.
func (v *Vote) EncodedSize() int { return voteWireSize }

// voteDigest computes the signed vote content digest. The buffer is a
// stack array: this runs once per vote per receiving node (every
// Verify re-derives it to guard the memo), so a heap buffer here was
// one allocation per delivered vote network-wide.
func voteDigest(v *Vote) hashx.Hash {
	var buf [keys.AddressSize + hashx.Size + 8]byte
	copy(buf[:keys.AddressSize], v.Rep[:])
	copy(buf[keys.AddressSize:], v.Block[:])
	binary.BigEndian.PutUint64(buf[keys.AddressSize+hashx.Size:], v.Seq)
	return hashx.Sum(buf[:])
}

// NewVote builds a signed vote by the representative key.
func NewVote(kp *keys.KeyPair, block hashx.Hash, seq uint64) *Vote {
	v := &Vote{Rep: kp.Address(), Block: block, Seq: seq, PubKey: kp.Pub}
	v.Sig = kp.SignMemo(&v.verified, v.Rep, voteDigest(v))
	return v
}

// Verify checks the vote signature and key/address binding. The verdict
// is memoized per pointer over Rep, the content digest (recomputed on
// every call), PubKey and Sig: every node pays the digest hash, not
// ed25519 — and a vote mutated after a successful check re-verifies.
func (v *Vote) Verify() bool {
	return v.verified.Verify(v.Rep, voteDigest(v), v.PubKey, v.Sig)
}

// Config tunes the tracker.
type Config struct {
	// QuorumFraction of the online weight a candidate must exceed to be
	// confirmed. The paper speaks of a "majority vote" (0.5); modern Nano
	// uses 0.67. Values outside (0,1) fall back to 0.5.
	QuorumFraction float64
}

// Tracker errors.
var (
	ErrBadVoteSig     = errors.New("orv: bad vote signature")
	ErrNotRep         = errors.New("orv: voter has no weight")
	ErrUnknownRoot    = errors.New("orv: no election for root")
	ErrNotCandidate   = errors.New("orv: vote for a non-candidate block")
	ErrAlreadyDecided = errors.New("orv: election already decided")
	ErrNotConfirmed   = errors.New("orv: block not confirmed")
	ErrCementConflict = errors.New("orv: conflicting block already cemented")
)

// repVote remembers a representative's current choice in an election.
type repVote struct {
	block hashx.Hash
	seq   uint64
}

// Election tallies weighted votes over a candidate set sharing one root
// (for forks, the contested predecessor; for plain confirmation, the block
// itself).
type Election struct {
	root       hashx.Hash
	candidates map[hashx.Hash]bool
	votes      map[keys.Address]repVote
	tallies    map[hashx.Hash]uint64
	decided    bool
	winner     hashx.Hash
}

// Outcome reports an election's state after a vote.
type Outcome struct {
	// Confirmed is true once a candidate exceeded the quorum.
	Confirmed bool
	// Winner is the confirmed candidate (zero until Confirmed).
	Winner hashx.Hash
	// Tally is the winner's (or current leader's) weight.
	Tally uint64
	// Quorum is the weight needed to confirm.
	Quorum uint64
}

// Tracker runs all live elections against one weight table.
type Tracker struct {
	weights   *Weights
	cfg       Config
	elections map[hashx.Hash]*Election
	confirmed map[hashx.Hash]bool
	cemented  map[hashx.Hash]bool
	// rootOf remembers which root a confirmed block belonged to.
	rootOf map[hashx.Hash]hashx.Hash
}

// NewTracker creates a tracker over the weight table.
func NewTracker(weights *Weights, cfg Config) *Tracker {
	if cfg.QuorumFraction <= 0 || cfg.QuorumFraction >= 1 {
		cfg.QuorumFraction = 0.5
	}
	return &Tracker{
		weights:   weights,
		cfg:       cfg,
		elections: make(map[hashx.Hash]*Election),
		confirmed: make(map[hashx.Hash]bool),
		cemented:  make(map[hashx.Hash]bool),
		rootOf:    make(map[hashx.Hash]hashx.Hash),
	}
}

// Weights returns the tracker's weight table.
func (t *Tracker) Weights() *Weights { return t.weights }

// QuorumWeight returns the weight a candidate must strictly exceed.
func (t *Tracker) QuorumWeight() uint64 {
	return uint64(t.cfg.QuorumFraction * float64(t.weights.OnlineTotal()))
}

// StartElection opens (or extends) the election for root with candidates.
// Reopening a decided election is an error.
func (t *Tracker) StartElection(root hashx.Hash, candidates ...hashx.Hash) error {
	e, ok := t.elections[root]
	if !ok {
		e = &Election{
			root:       root,
			candidates: make(map[hashx.Hash]bool),
			votes:      make(map[keys.Address]repVote),
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

// HasElection reports whether a live or decided election exists for root.
func (t *Tracker) HasElection(root hashx.Hash) bool {
	_, ok := t.elections[root]
	return ok
}

// AdoptVotes copies the votes recorded for candidate in the election
// rooted at fromRoot into the (live) election rooted at toRoot. A fork
// election opened after representatives already voted in the candidates'
// plain single-candidate elections inherits that knowledge instead of
// waiting for re-broadcasts the vote dedup would discard. Votes are
// adopted in deterministic representative order and obey the same
// sequence rules as ProcessVote; the returned outcome reflects the target
// election afterward (it may have been decided by the adoption).
func (t *Tracker) AdoptVotes(toRoot, fromRoot, candidate hashx.Hash) (Outcome, error) {
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
		to.votes[rep] = repVote{block: candidate, seq: rv.seq}
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

// ProcessVote verifies and tallies a vote in the election for root.
// A representative may switch candidates by voting with a higher Seq; the
// weight moves with it. The outcome reflects the election state after the
// vote.
func (t *Tracker) ProcessVote(root hashx.Hash, v *Vote) (Outcome, error) {
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
			return t.outcomeOf(e), nil // stale or duplicate vote
		}
		e.tallies[prior.block] -= weight
	}
	e.votes[v.Rep] = repVote{block: v.Block, seq: v.Seq}
	e.tallies[v.Block] += weight

	if e.tallies[v.Block] > t.QuorumWeight() {
		e.decided = true
		e.winner = v.Block
		t.confirmed[v.Block] = true
		t.rootOf[v.Block] = root
	}
	return t.outcomeOf(e), nil
}

// leaderOf scans an election's tallies for the heaviest candidate. Ties
// break on the smaller hash: the map's iteration order must never leak
// into results (runs are reproducible bit for bit from a seed).
func leaderOf(e *Election) (hashx.Hash, uint64) {
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

// outcomeOf summarizes an election.
func (t *Tracker) outcomeOf(e *Election) Outcome {
	o := Outcome{Quorum: t.QuorumWeight()}
	if e.decided {
		o.Confirmed = true
		o.Winner = e.winner
		o.Tally = e.tallies[e.winner]
		return o
	}
	_, o.Tally = leaderOf(e)
	o.Winner = hashx.Zero // no winner until confirmed
	return o
}

// Leader returns the current leading candidate and tally for a live
// election (useful for §III-B's "most votes with regards to the voters
// weight" conflict view). Equal tallies resolve to the smaller hash, so
// the answer is deterministic.
func (t *Tracker) Leader(root hashx.Hash) (hashx.Hash, uint64, error) {
	e, ok := t.elections[root]
	if !ok {
		return hashx.Zero, 0, ErrUnknownRoot
	}
	lead, best := leaderOf(e)
	return lead, best, nil
}

// Confirmed reports whether a block won its election.
func (t *Tracker) Confirmed(h hashx.Hash) bool { return t.confirmed[h] }

// Winner returns the decided winner for a root.
func (t *Tracker) Winner(root hashx.Hash) (hashx.Hash, bool) {
	e, ok := t.elections[root]
	if !ok || !e.decided {
		return hashx.Zero, false
	}
	return e.winner, true
}

// Cement marks a confirmed block irreversible (§IV-B's planned
// block-cementing). Cementing an unconfirmed block is an error, as is
// cementing a block whose election another candidate won.
func (t *Tracker) Cement(h hashx.Hash) error {
	if !t.confirmed[h] {
		return ErrNotConfirmed
	}
	root := t.rootOf[h]
	if w, ok := t.Winner(root); ok && w != h {
		return ErrCementConflict
	}
	t.cemented[h] = true
	return nil
}

// IsCemented reports whether a block has been cemented.
func (t *Tracker) IsCemented(h hashx.Hash) bool { return t.cemented[h] }

// Stats summarizes tracker activity.
type Stats struct {
	LiveElections int
	Decided       int
	Confirmed     int
	Cemented      int
}

// Stats returns a snapshot of tracker activity.
func (t *Tracker) Stats() Stats {
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
