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
// Every representative the table ever names keeps one dense slot, which
// is how elections record its votes. Nothing in a network simulation
// changes a table after it is built, so one table serves every node of a
// network.
type Weights struct {
	slots       map[keys.Address]uint32 // rep -> slot, never reassigned
	reps        []keys.Address          // slot -> rep
	weight      []uint64                // slot -> weight; 0: not a representative
	online      []bool
	total       uint64
	onlineTotal uint64
}

// NewWeights builds a table from a rep→weight map (see
// lattice.RepWeights). All representatives start online.
func NewWeights(byRep map[keys.Address]uint64) *Weights {
	w := &Weights{slots: make(map[keys.Address]uint32, len(byRep))}
	for rep, wt := range byRep {
		w.Update(rep, wt)
	}
	return w
}

// slotOf returns a representative's slot and weight; weight 0 means it
// holds none (the slot is then meaningless if it never had any).
func (w *Weights) slotOf(rep keys.Address) (uint32, uint64) {
	s, ok := w.slots[rep]
	if !ok {
		return 0, 0
	}
	return s, w.weight[s]
}

// WeightOf returns a representative's voting weight.
func (w *Weights) WeightOf(rep keys.Address) uint64 {
	_, wt := w.slotOf(rep)
	return wt
}

// Total returns the total delegated weight.
func (w *Weights) Total() uint64 { return w.total }

// OnlineTotal returns the online delegated weight, the quorum base.
func (w *Weights) OnlineTotal() uint64 { return w.onlineTotal }

// SetOnline marks a representative on- or offline, adjusting the quorum
// base (offline representatives model §IV-B's real-world vote loss).
func (w *Weights) SetOnline(rep keys.Address, online bool) {
	s, wt := w.slotOf(rep)
	if wt == 0 || w.online[s] == online {
		return
	}
	w.online[s] = online
	if online {
		w.onlineTotal += wt
	} else {
		w.onlineTotal -= wt
	}
}

// IsOnline reports whether the representative is marked online.
func (w *Weights) IsOnline(rep keys.Address) bool {
	s, wt := w.slotOf(rep)
	return wt > 0 && w.online[s]
}

// Update replaces a representative's weight (after re-delegation via a
// Change block) keeping totals consistent. A representative that gains
// weight from none starts online; one updated to zero holds none.
func (w *Weights) Update(rep keys.Address, newWeight uint64) {
	s, old := w.slotOf(rep)
	if old == 0 {
		if newWeight == 0 {
			return
		}
		if _, ok := w.slots[rep]; !ok {
			s = uint32(len(w.reps))
			w.slots[rep] = s
			w.reps = append(w.reps, rep)
			w.weight = append(w.weight, 0)
			w.online = append(w.online, false)
		}
		w.weight[s], w.online[s] = newWeight, true
		w.total += newWeight
		w.onlineTotal += newWeight
		return
	}
	w.total += newWeight - old
	if w.online[s] {
		w.onlineTotal += newWeight - old
	}
	w.weight[s] = newWeight
	if newWeight == 0 {
		w.online[s] = false
	}
}

// Vote is a representative's signed statement for one block. Seq lets a
// representative switch its vote during conflict resolution: higher
// sequence numbers supersede lower ones.
type Vote struct {
	Rep    keys.Address
	Block  hashx.Hash
	Seq    uint64
	PubKey ed25519.PublicKey
	sig    []byte

	// verified holds the signature verdict and how to make the bytes
	// (see keys.SigMemo): a broadcast vote is one shared pointer
	// delivered to every node, and NewVote binds the verdict, so an
	// honest vote never costs an ed25519 check, nor a signature unless
	// something reads it.
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
	kp.SignMemo(&v.verified, v.Rep, voteDigest(v))
	return v
}

// Sig returns the signature over the content NewVote was given, making
// it on the first call; not safe for a concurrent first call on the
// same pointer.
func (v *Vote) Sig() []byte { return v.verified.Sig(&v.sig) }

// WithSig returns a copy of v carrying sig and no verdict, which
// therefore verifies in full.
func (v *Vote) WithSig(sig []byte) *Vote {
	cp := *v
	cp.sig, cp.verified = sig, keys.SigMemo{}
	return &cp
}

// Verify checks the vote signature and key/address binding. The verdict
// is memoized per pointer over Rep, the content digest (recomputed on
// every call), PubKey and the signature: every node pays the digest
// hash, not ed25519 — and a vote mutated after signing or a successful
// check re-verifies.
func (v *Vote) Verify() bool {
	return v.verified.Verify(v.Rep, voteDigest(v), v.PubKey, &v.sig)
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
)

// Election tallies weighted votes over a candidate set sharing one root
// (for forks, the contested predecessor; for plain confirmation, the block
// itself). It is sized by its candidates and voters — one entry per
// candidate, one per representative that voted — and carries its own
// outcome: the winner and whether the winner is cemented.
//
// The first candidate and the first inlineVotes votes live inside the
// struct (cands and votes start as slices of cand0 and vote0), so an
// uncontested election is one allocation; a fork's second candidate or a
// vote past inlineVotes moves that slice to the heap.
type Election struct {
	cands []candidate
	votes []repVote
	// winner indexes the confirmed candidate; -1 while the election is live.
	winner int32
	// cemented marks the winner irreversible. It is read on the block's
	// record (Tracker.record) only; an election that becomes a block's
	// record later inherits the mark when it is decided.
	cemented bool

	cand0 [1]candidate
	vote0 [inlineVotes]repVote
}

// inlineVotes is how many votes an Election holds before its votes move
// to the heap. Four covers every representative of the networks built
// here, and keeps the struct (160 bytes) no larger than the struct plus
// the candidate and four-vote arrays it replaces (64 + 48 + 64 bytes).
const inlineVotes = 4

// candidate is one block on an election's ballot and its tally.
type candidate struct {
	block hashx.Hash
	tally uint64
}

// repVote is a representative's current choice in an election: its slot
// in the weight table, the candidate index and the sequence number.
type repVote struct {
	rep, cand uint32
	seq       uint64
}

func (e *Election) decided() bool { return e.winner >= 0 }

func (e *Election) winnerBlock() hashx.Hash { return e.cands[e.winner].block }

// index returns the ballot position of block, -1 if it is no candidate.
func (e *Election) index(block hashx.Hash) int {
	for i := range e.cands {
		if e.cands[i].block == block {
			return i
		}
	}
	return -1
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

// Tracker runs all live elections against one weight table. A block is
// confirmed when it won an election; one that won the election rooted at
// its own hash is found through that root, and the rest — fork winners —
// are listed in forkWins, so an honest run keeps no second index.
type Tracker struct {
	weights   *Weights
	cfg       Config
	elections map[hashx.Hash]*Election
	// forkWins holds, in decision order, the decided elections whose
	// winner is not their root; nil until the first one.
	forkWins []*Election
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
		e = &Election{winner: -1}
		e.cands, e.votes = e.cand0[:0], e.vote0[:0]
		t.elections[root] = e
	}
	if e.decided() {
		return ErrAlreadyDecided
	}
	for _, c := range candidates {
		if e.index(c) < 0 {
			e.cands = append(e.cands, candidate{block: c})
		}
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
	ci := to.index(candidate)
	if ci < 0 {
		return t.outcomeOf(to), fmt.Errorf("%w: %s", ErrNotCandidate, candidate)
	}
	fi := from.index(candidate)
	var voters []repVote
	for _, v := range from.votes {
		if int(v.cand) == fi {
			voters = append(voters, v)
		}
	}
	reps := t.weights.reps
	sort.Slice(voters, func(i, j int) bool {
		return bytes.Compare(reps[voters[i].rep][:], reps[voters[j].rep][:]) < 0
	})
	for _, v := range voters {
		if to.decided() {
			break
		}
		if weight := t.weights.weight[v.rep]; weight > 0 {
			t.tally(toRoot, to, v.rep, weight, ci, v.seq)
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
	rep, weight := t.weights.slotOf(v.Rep)
	if weight == 0 {
		return Outcome{}, fmt.Errorf("%w: %s", ErrNotRep, v.Rep)
	}
	ci := e.index(v.Block)
	if ci < 0 {
		return Outcome{}, fmt.Errorf("%w: %s", ErrNotCandidate, v.Block)
	}
	if e.decided() {
		return t.outcomeOf(e), ErrAlreadyDecided
	}
	t.tally(root, e, rep, weight, ci, v.Seq)
	return t.outcomeOf(e), nil
}

// tally records rep's vote for candidate ci of the live election e at
// root. A vote with a sequence number no higher than the rep's recorded
// one is stale and ignored; a newer one moves the rep's weight. The
// election is decided once the candidate's tally exceeds the quorum.
func (t *Tracker) tally(root hashx.Hash, e *Election, rep uint32, weight uint64, ci int, seq uint64) {
	i := 0
	for i < len(e.votes) && e.votes[i].rep != rep {
		i++
	}
	if i < len(e.votes) {
		prior := &e.votes[i]
		if seq <= prior.seq {
			return
		}
		e.cands[prior.cand].tally -= weight
		prior.cand, prior.seq = uint32(ci), seq
	} else {
		e.votes = append(e.votes, repVote{rep: rep, cand: uint32(ci), seq: seq})
	}
	e.cands[ci].tally += weight
	if e.cands[ci].tally <= t.QuorumWeight() {
		return
	}
	block := e.cands[ci].block
	e.cemented = t.IsCemented(block)
	e.winner = int32(ci)
	if block != root {
		t.forkWins = append(t.forkWins, e)
	}
}

// leaderOf scans an election's tallies for the heaviest candidate. Ties
// break on the smaller hash, so the answer never depends on ballot order
// (runs are reproducible bit for bit from a seed).
func leaderOf(e *Election) (hashx.Hash, uint64) {
	var lead hashx.Hash
	var best uint64
	for _, c := range e.cands {
		if c.tally > best || (c.tally == best && c.tally > 0 && bytes.Compare(c.block[:], lead[:]) < 0) {
			best = c.tally
			lead = c.block
		}
	}
	return lead, best
}

// outcomeOf summarizes an election.
func (t *Tracker) outcomeOf(e *Election) Outcome {
	o := Outcome{Quorum: t.QuorumWeight()}
	if e.decided() {
		o.Confirmed = true
		o.Winner = e.winnerBlock()
		o.Tally = e.cands[e.winner].tally
		return o
	}
	_, o.Tally = leaderOf(e)
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

// record returns the election that stands for a confirmed block: the one
// rooted at the block itself if it won there, else the first fork
// election it won; nil if the block is not confirmed.
func (t *Tracker) record(h hashx.Hash) *Election {
	if e := t.elections[h]; e != nil && e.decided() && e.winnerBlock() == h {
		return e
	}
	for _, e := range t.forkWins {
		if e.winnerBlock() == h {
			return e
		}
	}
	return nil
}

// Confirmed reports whether a block won its election.
func (t *Tracker) Confirmed(h hashx.Hash) bool { return t.record(h) != nil }

// Winner returns the decided winner for a root.
func (t *Tracker) Winner(root hashx.Hash) (hashx.Hash, bool) {
	e, ok := t.elections[root]
	if !ok || !e.decided() {
		return hashx.Zero, false
	}
	return e.winnerBlock(), true
}

// Cement marks a confirmed block irreversible (§IV-B's planned
// block-cementing). Cementing an unconfirmed block is an error.
func (t *Tracker) Cement(h hashx.Hash) error {
	e := t.record(h)
	if e == nil {
		return ErrNotConfirmed
	}
	e.cemented = true
	return nil
}

// IsCemented reports whether a block has been cemented.
func (t *Tracker) IsCemented(h hashx.Hash) bool {
	e := t.record(h)
	return e != nil && e.cemented
}

// Stats summarizes tracker activity.
type Stats struct {
	LiveElections int
	Decided       int
	Confirmed     int
	Cemented      int
}

// Stats returns a snapshot of tracker activity. Confirmed and Cemented
// count blocks, each once however many elections it won.
func (t *Tracker) Stats() Stats {
	var s Stats
	count := func(e *Election) {
		s.Confirmed++
		if e.cemented {
			s.Cemented++
		}
	}
	for root, e := range t.elections {
		if !e.decided() {
			s.LiveElections++
			continue
		}
		s.Decided++
		if e.winnerBlock() == root {
			count(e)
		}
	}
	for _, e := range t.forkWins {
		if t.record(e.winnerBlock()) == e {
			count(e)
		}
	}
	return s
}
