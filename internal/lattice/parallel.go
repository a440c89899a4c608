// Parallel batch settlement for the block-lattice. Accounts are
// independent chains by construction (§II-B: "every account is linked to
// its own account-chain"), which is the defining throughput lever of DAG
// ledgers: validation work for different accounts never conflicts. The
// batch pipeline below exploits that where the cycles actually go — an
// embarrassingly parallel crypto stage (hashing, ed25519 signatures via
// keys.VerifyBatch, anti-spam work stamps) — and then applies the
// pre-verified blocks serially in input order. Application is pure map
// and slice bookkeeping, orders of magnitude cheaper than the signature
// checks; doing it in input order makes the batch bit-identical to serial
// Process calls even for adversarial streams (deliberate forks, where
// WHICH of two conflicting blocks attaches first decides the incumbent
// the network votes on).
package lattice

import (
	"repro/internal/hashx"
	"repro/internal/keys"
	"repro/internal/par"
)

// prechecked carries stage-1 verification results into stage 2.
type prechecked struct {
	h      hashx.Hash
	sigOK  bool
	workOK bool
	// memoed marks blocks whose signature verdict came from the VerifySig
	// memo; they carry no VerifyBatch job.
	memoed bool
}

// ProcessBatch validates and attaches a batch of blocks, fanning the
// expensive crypto checks across a bounded worker pool (workers <= 0
// means runtime.NumCPU()). Results are returned in input order, one per
// block.
//
// Guarantees: the resulting lattice state AND the per-block results are
// byte-identical to calling Process serially on the same stream, for any
// worker count — including streams containing duplicates, malformed
// blocks and deliberate forks, where attachment order decides which
// rival becomes the incumbent (fuzzed by FuzzLatticeProcessBatch).
//
// ProcessBatch must not run concurrently with other calls on this
// lattice or on any replica sharing its catalog: only the crypto stage
// fans out, and it reads blocks, never the catalog.
func (l *Lattice) ProcessBatch(blocks []*Block, workers int) []Result {
	results := make([]Result, len(blocks))
	if len(blocks) == 0 {
		return results
	}

	// Stage 0: serial hashing. Block.Hash memoizes on first call, and a
	// batch may legitimately contain the same pointer twice (duplicates
	// are part of the contract), so the first hash of each block must not
	// race across workers. Hashing is ~200ns against ~50µs of ed25519
	// per block, so serializing it costs nothing measurable.
	for _, b := range blocks {
		_ = b.Hash()
	}

	// Stage 1: parallel crypto. Work-stamp checks chunk across the pool;
	// the signature checks ride the keys.VerifyBatch pool using the
	// memoized hashes. Blocks whose signature verdict is memoized (in a
	// network sim the same pointer reaches every replica) skip the batch:
	// workers only READ the memo here, and never read a signature, whose
	// first read writes the block; reads and memo writes happen in the
	// serial passes below, so duplicate pointers in one batch never race.
	pre := make([]prechecked, len(blocks))
	par.For(len(blocks), workers, 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			b := blocks[i]
			pre[i].h = b.Hash()
			pre[i].workOK = l.workBits <= 0 ||
				hashx.VerifyStamp(pre[i].h[:], hashx.Stamp{Nonce: b.Work, Bits: l.workBits})
			if b.verified.Hit(b.Account, pre[i].h, b.PubKey, b.sig) {
				pre[i].sigOK = true
				pre[i].memoed = true
				continue
			}
			// The key/account binding is part of signature validity.
			pre[i].sigOK = keys.AddressOf(b.PubKey) == b.Account
		}
	})
	// Serial signature reads: a memo miss needs the bytes, made here on
	// the first read of a block nothing had read. A memoed block keeps a
	// zero-value job, whose verdict is ignored below.
	jobs := make([]keys.VerifyJob, len(blocks))
	for i, b := range blocks {
		if !pre[i].memoed {
			jobs[i] = keys.VerifyJob{Pub: b.PubKey, Msg: pre[i].h[:], Sig: b.Sig()}
		}
	}
	for i, ok := range keys.VerifyBatch(jobs, workers) {
		if !pre[i].memoed {
			pre[i].sigOK = pre[i].sigOK && ok
		}
	}
	// Serial memo write-back: successful verdicts feed later batches and
	// the serial Process path (only success is ever cached — see
	// keys.SigMemo).
	for i, b := range blocks {
		if pre[i].sigOK && !pre[i].memoed {
			b.verified.Store(b.Account, pre[i].h, b.PubKey, b.sig)
		}
	}

	// Stage 2: apply in input order. Fork incumbency, gap draining and
	// pending settlement all depend on attachment order, so the serial
	// schedule is the specification — and it is already the cheap part.
	// Aged-out gap blocks expire before each block, as Process does.
	for i, b := range blocks {
		l.gaps.Expire()
		res := l.processVerified(b, pre[i].h, pre[i].sigOK, pre[i].workOK)
		if res.Status == Accepted {
			res.Drained = l.drainGaps(b, nil)
		}
		results[i] = res
	}
	return results
}
