// Package pos implements Proof of Stake as the paper describes it
// (§III-A2): validators deposit stake, the protocol picks block proposers
// with probability proportional to stake, and misbehavior burns the
// offender's deposit — "burning stake has the same economic effect as
// dismantling an attacker's mining equipment". It also implements a
// Casper-FFG-style finality gadget (§IV-A): two-thirds stake votes justify
// checkpoints, consecutive justified checkpoints finalize, and finalized
// checkpoints are the "non-reversible checkpoints, guaranteeing block
// inclusion" the paper attributes to Casper FFG.
package pos

import (
	"crypto/ed25519"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"repro/internal/hashx"
	"repro/internal/keys"
)

// Registry errors.
var (
	ErrUnknownValidator = errors.New("pos: unknown validator")
	ErrSlashed          = errors.New("pos: validator is slashed")
	ErrNoStake          = errors.New("pos: no active stake")
	ErrZeroDeposit      = errors.New("pos: deposit must be positive")
)

// Validator is one staked participant.
type Validator struct {
	Addr    keys.Address
	Pub     ed25519.PublicKey
	Stake   uint64
	Slashed bool
}

// Registry is the validator set: the "smart contract named Casper" that
// validators "deposit their stake in".
type Registry struct {
	vals   map[keys.Address]*Validator
	order  []keys.Address // sorted, for deterministic iteration
	total  uint64         // active (unslashed) stake
	burned uint64
}

// NewRegistry returns an empty validator set.
func NewRegistry() *Registry {
	return &Registry{vals: make(map[keys.Address]*Validator)}
}

// Deposit stakes amount for the key's address, registering the validator
// on first deposit.
func (r *Registry) Deposit(pub ed25519.PublicKey, amount uint64) error {
	if amount == 0 {
		return ErrZeroDeposit
	}
	addr := keys.AddressOf(pub)
	v, ok := r.vals[addr]
	if !ok {
		v = &Validator{Addr: addr, Pub: pub}
		r.vals[addr] = v
		r.order = append(r.order, addr)
		sort.Slice(r.order, func(i, j int) bool { return r.order[i].Less(r.order[j]) })
	}
	if v.Slashed {
		return ErrSlashed
	}
	v.Stake += amount
	r.total += amount
	return nil
}

// Withdraw removes a validator's full stake and returns it.
func (r *Registry) Withdraw(addr keys.Address) (uint64, error) {
	v, ok := r.vals[addr]
	if !ok {
		return 0, ErrUnknownValidator
	}
	if v.Slashed {
		return 0, ErrSlashed
	}
	amount := v.Stake
	v.Stake = 0
	r.total -= amount
	return amount, nil
}

// Slash burns a validator's entire deposit (§III-A2: "the validator's
// stake is burned, thus penalizing the validator") and returns the amount.
func (r *Registry) Slash(addr keys.Address) (uint64, error) {
	v, ok := r.vals[addr]
	if !ok {
		return 0, ErrUnknownValidator
	}
	if v.Slashed {
		return 0, ErrSlashed
	}
	burned := v.Stake
	v.Stake = 0
	v.Slashed = true
	r.total -= burned
	r.burned += burned
	return burned, nil
}

// StakeOf returns a validator's active stake.
func (r *Registry) StakeOf(addr keys.Address) uint64 {
	if v, ok := r.vals[addr]; ok && !v.Slashed {
		return v.Stake
	}
	return 0
}

// IsSlashed reports whether the validator has been slashed.
func (r *Registry) IsSlashed(addr keys.Address) bool {
	v, ok := r.vals[addr]
	return ok && v.Slashed
}

// TotalStake returns the active stake across all validators.
func (r *Registry) TotalStake() uint64 { return r.total }

// Burned returns the cumulative slashed stake.
func (r *Registry) Burned() uint64 { return r.burned }

// Len returns the number of registered validators (slashed included).
func (r *Registry) Len() int { return len(r.vals) }

// Proposer deterministically selects the slot's block proposer with
// probability proportional to stake: the PoS replacement for the PoW
// lottery. The seed usually is the last finalized checkpoint hash.
func (r *Registry) Proposer(slot uint64, seed hashx.Hash) (keys.Address, error) {
	if r.total == 0 {
		return keys.ZeroAddress, ErrNoStake
	}
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], slot)
	draw := hashx.Concat(seed[:], buf[:]).Uint64() % r.total
	var acc uint64
	for _, addr := range r.order {
		v := r.vals[addr]
		if v.Slashed || v.Stake == 0 {
			continue
		}
		acc += v.Stake
		if draw < acc {
			return addr, nil
		}
	}
	return keys.ZeroAddress, ErrNoStake
}

// Checkpoint identifies an FFG checkpoint: a block hash at an epoch
// boundary.
type Checkpoint struct {
	Hash  hashx.Hash
	Epoch uint64
}

// Vote is one validator's FFG link vote from a justified source to a
// target checkpoint.
type Vote struct {
	Validator keys.Address
	Source    Checkpoint
	Target    Checkpoint
	PubKey    ed25519.PublicKey
	sig       []byte

	// verified holds the signature verdict and how to make the bytes
	// (see keys.SigMemo), bound by NewVote.
	verified keys.SigMemo
}

// voteDigest is the signed content.
func voteDigest(v *Vote) hashx.Hash {
	var buf [2 * (hashx.Size + 8)]byte
	off := 0
	copy(buf[off:], v.Source.Hash[:])
	off += hashx.Size
	binary.BigEndian.PutUint64(buf[off:], v.Source.Epoch)
	off += 8
	copy(buf[off:], v.Target.Hash[:])
	off += hashx.Size
	binary.BigEndian.PutUint64(buf[off:], v.Target.Epoch)
	return hashx.Sum(buf[:])
}

// NewVote builds a signed FFG vote.
func NewVote(kp *keys.KeyPair, source, target Checkpoint) *Vote {
	v := &Vote{Validator: kp.Address(), Source: source, Target: target, PubKey: kp.Pub}
	kp.SignMemo(&v.verified, v.Validator, voteDigest(v))
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

// Verify checks the vote signature and address binding.
func (v *Vote) Verify() bool {
	return v.verified.Verify(v.Validator, voteDigest(v), v.PubKey, &v.sig)
}

// FFG errors and slashing causes.
var (
	ErrBadVoteSig     = errors.New("pos: bad vote signature")
	ErrUnjustified    = errors.New("pos: vote source is not justified")
	ErrDoubleVote     = errors.New("pos: double vote (two targets in one epoch)")
	ErrSurroundVote   = errors.New("pos: surround vote")
	ErrEpochRegress   = errors.New("pos: target epoch not after source epoch")
	ErrAlreadyCounted = errors.New("pos: vote already counted")
)

// voteRecord remembers a validator's past links for slashing detection.
type voteRecord struct {
	source Checkpoint
	target Checkpoint
}

// FFG accumulates votes, justifies targets at ≥2/3 stake, and finalizes a
// justified checkpoint when its direct child is justified — the classic
// two-phase Casper FFG rule.
type FFG struct {
	reg       *Registry
	justified map[hashx.Hash]bool
	finalized map[hashx.Hash]bool
	epochOf   map[hashx.Hash]uint64
	tallies   map[hashx.Hash]uint64 // target hash -> stake in favor
	counted   map[hashx.Hash]map[keys.Address]bool
	history   map[keys.Address][]voteRecord
	lastFinal Checkpoint
	lastJust  Checkpoint
}

// NewFFG creates a gadget rooted at the genesis checkpoint, which is both
// justified and finalized by definition.
func NewFFG(reg *Registry, genesis Checkpoint) *FFG {
	f := &FFG{
		reg:       reg,
		justified: map[hashx.Hash]bool{genesis.Hash: true},
		finalized: map[hashx.Hash]bool{genesis.Hash: true},
		epochOf:   map[hashx.Hash]uint64{genesis.Hash: genesis.Epoch},
		tallies:   make(map[hashx.Hash]uint64),
		counted:   make(map[hashx.Hash]map[keys.Address]bool),
		history:   make(map[keys.Address][]voteRecord),
		lastFinal: genesis,
		lastJust:  genesis,
	}
	return f
}

// Justified reports whether a checkpoint hash has been justified.
func (f *FFG) Justified(h hashx.Hash) bool { return f.justified[h] }

// Finalized reports whether a checkpoint hash has been finalized
// (non-reversible, §IV-A).
func (f *FFG) Finalized(h hashx.Hash) bool { return f.finalized[h] }

// LastFinalized returns the highest finalized checkpoint.
func (f *FFG) LastFinalized() Checkpoint { return f.lastFinal }

// LastJustified returns the highest justified checkpoint.
func (f *FFG) LastJustified() Checkpoint { return f.lastJust }

// ProcessVote verifies and counts a vote. Equivocation (double or
// surround votes) slashes the validator and returns the matching error;
// the vote is not counted. It returns whether the vote's target became
// justified and whether that justification finalized the source.
func (f *FFG) ProcessVote(v *Vote) (justified, finalized bool, err error) {
	if !v.Verify() {
		return false, false, ErrBadVoteSig
	}
	stake := f.reg.StakeOf(v.Validator)
	if stake == 0 {
		return false, false, fmt.Errorf("%w: %s", ErrUnknownValidator, v.Validator)
	}
	if v.Target.Epoch <= v.Source.Epoch {
		return false, false, ErrEpochRegress
	}
	if !f.justified[v.Source.Hash] {
		return false, false, fmt.Errorf("%w: source %s@%d", ErrUnjustified, v.Source.Hash, v.Source.Epoch)
	}
	// Slashing conditions.
	for _, rec := range f.history[v.Validator] {
		if rec.target.Epoch == v.Target.Epoch && rec.target.Hash != v.Target.Hash {
			f.reg.Slash(v.Validator)
			return false, false, ErrDoubleVote
		}
		surrounds := v.Source.Epoch < rec.source.Epoch && rec.target.Epoch < v.Target.Epoch
		surrounded := rec.source.Epoch < v.Source.Epoch && v.Target.Epoch < rec.target.Epoch
		if surrounds || surrounded {
			f.reg.Slash(v.Validator)
			return false, false, ErrSurroundVote
		}
	}
	if f.counted[v.Target.Hash] == nil {
		f.counted[v.Target.Hash] = make(map[keys.Address]bool)
	}
	if f.counted[v.Target.Hash][v.Validator] {
		return false, false, ErrAlreadyCounted
	}
	f.counted[v.Target.Hash][v.Validator] = true
	f.history[v.Validator] = append(f.history[v.Validator], voteRecord{source: v.Source, target: v.Target})
	f.tallies[v.Target.Hash] += stake
	f.epochOf[v.Target.Hash] = v.Target.Epoch

	// Supermajority: strictly more than 2/3 of active stake.
	if !f.justified[v.Target.Hash] && 3*f.tallies[v.Target.Hash] > 2*f.reg.TotalStake() {
		f.justified[v.Target.Hash] = true
		justified = true
		if v.Target.Epoch > f.lastJust.Epoch {
			f.lastJust = v.Target
		}
		// Finalize the source when the target is its direct child epoch.
		if v.Target.Epoch == v.Source.Epoch+1 && !f.finalized[v.Source.Hash] {
			f.finalized[v.Source.Hash] = true
			finalized = true
			if v.Source.Epoch > f.lastFinal.Epoch {
				f.lastFinal = v.Source
			}
		}
	}
	return justified, finalized, nil
}
