package lattice

// FuzzLatticeProcessBatch: the batch pipeline's contract is that any
// block stream — valid transfers interleaved with malformed signatures,
// bad balances, duplicates, struct copies of blocks nothing has read,
// deliberate forks (double spends) and gap-source orphans — leaves the
// lattice in a state byte-identical to applying the same stream serially
// through Process, for any worker count. The fuzzer drives op generation
// from raw bytes so coverage feedback explores the interleavings.

import (
	"bytes"
	"sort"
	"testing"

	"repro/internal/hashx"
	"repro/internal/keys"
)

// fuzzAccounts keeps key generation cheap per exec.
const fuzzAccounts = 4

// buildFuzzStream turns fuzz bytes into a block stream. A builder lattice
// tracks the valid view so generated blocks reference real heads; the
// returned stream also carries blocks the builder would reject.
func buildFuzzStream(ring *keys.Ring, data []byte) []*Block {
	builder, _, err := New(ring.Pair(0), 1_000, 0)
	if err != nil {
		panic(err)
	}
	var stream []*Block
	emitValid := func(b *Block, err error) {
		if err != nil || b == nil {
			return
		}
		builder.Process(b)
		stream = append(stream, b)
	}
	// Seed distribution: fund and open every account so each op has
	// chains to work with.
	for i := 1; i < fuzzAccounts; i++ {
		send, err := builder.NewSend(ring.Pair(0), ring.Addr(i), 100)
		emitValid(send, err)
		if send == nil {
			continue
		}
		open, err := builder.NewOpen(ring.Pair(i), send.Hash(), ring.Addr(i))
		emitValid(open, err)
	}

	sortedPending := func(addr keys.Address) []hashx.Hash {
		hs := builder.PendingFor(addr)
		sort.Slice(hs, func(i, j int) bool { return bytes.Compare(hs[i][:], hs[j][:]) < 0 })
		return hs
	}

	const maxOps = 24
	ops := 0
	for i := 0; i+1 < len(data) && ops < maxOps; i += 2 {
		ops++
		op, arg := data[i]%8, data[i+1]
		acct := int(arg) % fuzzAccounts
		other := (acct + 1 + int(arg/16)%(fuzzAccounts-1)) % fuzzAccounts
		pair, addr := ring.Pair(acct), ring.Addr(acct)
		switch op {
		case 0: // valid send
			if builder.Balance(addr) > 0 {
				send, err := builder.NewSend(pair, ring.Addr(other), 1+uint64(arg%5))
				emitValid(send, err)
			}
		case 1: // settle the first pending send of this account
			if hs := sortedPending(addr); len(hs) > 0 {
				src := hs[int(arg)%len(hs)]
				if _, opened := builder.Head(addr); opened {
					emitValid(builder.NewReceive(pair, src))
				} else {
					emitValid(builder.NewOpen(pair, src, addr))
				}
			}
		case 2: // deliberate fork: a second send claiming an interior prev
			chain := builder.Chain(addr)
			if len(chain) >= 2 {
				at := chain[int(arg)%(len(chain)-1)] // any non-head block
				if at.Balance > 0 {
					fork, err := NewForkSend(pair, at.Hash(), at.Balance,
						ring.Addr(other), 1, at.Representative, 0)
					if err == nil {
						stream = append(stream, fork)
					}
				}
			}
		case 3: // representative change
			if _, opened := builder.Head(addr); opened {
				emitValid(builder.NewChange(pair, ring.Addr(other)))
			}
		case 4: // corrupt signature on a copy of an earlier block
			if len(stream) > 0 {
				// Read through a struct copy, so orig stays unread.
				orig := stream[int(arg)%len(stream)]
				cp := *orig
				sig := append([]byte(nil), cp.Sig()...)
				sig[int(arg)%len(sig)] ^= 0x40
				stream = append(stream, orig.WithSig(sig))
			}
		case 5: // balance violation: a "send" that increases the balance
			if head, opened := builder.HeadBlock(addr); opened {
				bad := &Block{
					Type:           Send,
					Account:        addr,
					Prev:           head.Hash(),
					Representative: head.Representative,
					Balance:        head.Balance + 1 + uint64(arg),
					Destination:    ring.Addr(other),
				}
				bad.sign(pair)
				stream = append(stream, bad)
			}
		case 6: // exact duplicate of an earlier stream block, or with arg's
			// top bit a struct copy of it: no op reads a stream block, so
			// the copy carries a signature still to be made
			if len(stream) > 0 {
				orig := stream[int(arg)%len(stream)]
				if arg&0x80 != 0 {
					cp := *orig
					orig = &cp
				}
				stream = append(stream, orig)
			}
		case 7: // receive of a nonexistent source (gap-source orphan)
			if head, opened := builder.HeadBlock(addr); opened {
				orphan := &Block{
					Type:           Receive,
					Account:        addr,
					Prev:           head.Hash(),
					Representative: head.Representative,
					Balance:        head.Balance + 1,
					Source:         hashx.Sum([]byte{arg, byte(op), byte(i)}),
				}
				orphan.sign(pair)
				stream = append(stream, orphan)
			}
		}
	}
	return stream
}

func FuzzLatticeProcessBatch(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 1, 1, 2, 3, 6, 0})
	f.Add([]byte{2, 9, 2, 17, 4, 3, 5, 7, 7, 11, 0, 255})
	f.Add([]byte{})
	f.Add([]byte{6, 0, 6, 1, 6, 2, 1, 0, 1, 1, 1, 2, 0, 8, 2, 200})
	f.Add([]byte{0, 1, 6, 0x81, 6, 0x81, 1, 2, 6, 0x83, 4, 3})

	ring := keys.NewRing("fuzz-lattice", fuzzAccounts)

	f.Fuzz(func(t *testing.T, data []byte) {
		stream := buildFuzzStream(ring, data)

		// The batch goes first, so it meets the stream's blocks unread.
		batched, _, err := New(ring.Pair(0), 1_000, 0)
		if err != nil {
			t.Fatal(err)
		}
		batched.ProcessBatch(stream, 1)

		serial, _, err := New(ring.Pair(0), 1_000, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range stream {
			serial.Process(b)
		}

		// The two replicas must agree on every piece of attached state.
		if a, b := serial.BlockCount(), batched.BlockCount(); a != b {
			t.Fatalf("block count: serial %d vs batch %d", a, b)
		}
		if a, b := serial.Accounts(), batched.Accounts(); a != b {
			t.Fatalf("accounts: serial %d vs batch %d", a, b)
		}
		if a, b := serial.PendingCount(), batched.PendingCount(); a != b {
			t.Fatalf("pending count: serial %d vs batch %d", a, b)
		}
		if a, b := serial.PendingTotal(), batched.PendingTotal(); a != b {
			t.Fatalf("pending total: serial %d vs batch %d", a, b)
		}
		if a, b := serial.GapCount(), batched.GapCount(); a != b {
			t.Fatalf("gap count: serial %d vs batch %d", a, b)
		}
		for i := 0; i < fuzzAccounts; i++ {
			addr := ring.Addr(i)
			sh, sok := serial.Head(addr)
			bh, bok := batched.Head(addr)
			if sok != bok || sh != bh {
				t.Fatalf("account %d head: serial %v/%v vs batch %v/%v", i, sh, sok, bh, bok)
			}
			if a, b := serial.Balance(addr), batched.Balance(addr); a != b {
				t.Fatalf("account %d balance: serial %d vs batch %d", i, a, b)
			}
		}
		// Neither replica may violate value conservation, no matter how
		// hostile the stream was.
		if err := serial.CheckInvariant(); err != nil {
			t.Fatalf("serial: %v", err)
		}
		if err := batched.CheckInvariant(); err != nil {
			t.Fatalf("batched: %v", err)
		}
	})
}
