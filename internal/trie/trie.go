// Package trie implements a persistent (copy-on-write) Merkle Patricia-style
// trie. It is the substrate for the Ethereum-like world state the paper
// discusses in §V-A: every block commits to a state root, historical roots
// share unchanged subtrees ("deltas in the global state"), pruning discards
// the node sets only reachable from old roots, and fast sync enumerates the
// full key/value set at a pivot root to rebuild state without replaying
// history.
//
// The trie is hexary with two node kinds, branch and leaf; shared key
// prefixes form chains of single-child branches. This keeps the structure
// canonical — the root hash depends only on the key/value content, never on
// the insertion order — which the tests verify by property checking.
//
// A frozen Trie is immutable: Put and Delete return a new Trie that shares
// all untouched nodes with its parent. Every trie is frozen except one
// returned by Thaw, which its holder owns: Put and Delete change it in
// place, copying a node the first time they reach it and rewriting that
// copy in place after that. The owner rule: a mutable trie never leaves
// the holder that thawed it. In this module that is the account.State
// that owns it, which freezes it before any snapshot, stored post-state or
// checkpoint can see it. Tries are not safe for concurrent mutation but
// any number of goroutines may read distinct frozen Trie values.
package trie

import (
	"bytes"
	"encoding/binary"

	"repro/internal/hashx"
)

// node is either a *leafNode or a *branchNode.
type node interface {
	// hash returns the Merkle digest of the subtree, memoizing it.
	hash() hashx.Hash
	// encodedSize returns the modeled on-disk size of this single node.
	encodedSize() int
}

// leafNode stores the remaining key path (in nibbles) and the value.
type leafNode struct {
	path  []byte // nibbles remaining below the parent
	value []byte
	memo  hashx.Hash
	done  bool
	owner uint32 // the generation that may rewrite this node in place; 0: none
}

// branchNode fans out on the next nibble; value is set when a key
// terminates exactly at this node (a key that is a prefix of another).
type branchNode struct {
	children [16]node
	value    []byte // nil means no value terminates here
	memo     hashx.Hash
	done     bool
	owner    uint32 // as on leafNode; fits the padding after done
}

func (l *leafNode) hash() hashx.Hash {
	if l.done {
		return l.memo
	}
	var lenBuf [4]byte
	binary.BigEndian.PutUint32(lenBuf[:], uint32(len(l.path)))
	l.memo = hashx.Concat([]byte{0x02}, lenBuf[:], l.path, l.value)
	l.done = true
	return l.memo
}

func (l *leafNode) encodedSize() int { return 1 + 4 + len(l.path) + len(l.value) }

func (b *branchNode) hash() hashx.Hash {
	if b.done {
		return b.memo
	}
	buf := make([]byte, 0, 1+16*hashx.Size+1+len(b.value))
	buf = append(buf, 0x01)
	for _, c := range b.children {
		if c == nil {
			buf = append(buf, hashx.Zero[:]...)
		} else {
			h := c.hash()
			buf = append(buf, h[:]...)
		}
	}
	if b.value != nil {
		buf = append(buf, 0x01)
		buf = append(buf, b.value...)
	} else {
		buf = append(buf, 0x00)
	}
	b.memo = hashx.Sum(buf)
	b.done = true
	return b.memo
}

func (b *branchNode) encodedSize() int {
	// 16 child references plus the optional value.
	return 1 + 16*hashx.Size + 1 + len(b.value)
}

// Trie is a key/value map with a Merkle root, immutable unless thawed
// (see the package notes). The zero value is the empty trie. Tries rooted
// at EmptyArena carry a shared slab arena (see arena.go) that batches
// node allocation and hands out the generations Thaw stamps.
type Trie struct {
	root  node
	arena *arena
	// count and owner share one word, which keeps the header in the
	// 32-byte size class every frozen Put allocates from.
	count uint32
	owner uint32 // this trie's generation while thawed; 0 when frozen
}

// Empty returns the empty trie.
func Empty() *Trie { return &Trie{} }

// Len returns the number of keys stored.
func (t *Trie) Len() int { return int(t.count) }

// Root returns the Merkle root of the trie, or hashx.Zero when empty.
func (t *Trie) Root() hashx.Hash {
	if t.root == nil {
		return hashx.Zero
	}
	return t.root.hash()
}

// appendNibbles expands key into dst as 4-bit digits, high nibble first,
// letting hot paths expand typical (short) keys into a stack buffer
// instead of a fresh heap slice.
func appendNibbles(dst, key []byte) []byte {
	for _, b := range key {
		dst = append(dst, b>>4, b&0x0F)
	}
	return dst
}

// nibbleBuf is the stack scratch for key expansion: keys up to 32 bytes
// (every ledger key — accounts, storage slots — fits) expand without
// allocating; longer keys fall back to the heap.
type nibbleBuf [64]byte

// expand converts key to nibbles using buf when it fits.
func (buf *nibbleBuf) expand(key []byte) []byte {
	if 2*len(key) <= len(buf) {
		return appendNibbles(buf[:0], key)
	}
	return appendNibbles(make([]byte, 0, 2*len(key)), key)
}

// packNibbles reassembles a full nibble path into the original key bytes.
// The path length is always even for byte keys.
func packNibbles(path []byte) []byte {
	out := make([]byte, len(path)/2)
	for i := range out {
		out[i] = path[2*i]<<4 | path[2*i+1]
	}
	return out
}

// Get returns the value stored under key, or ok=false.
func (t *Trie) Get(key []byte) (value []byte, ok bool) {
	n := t.root
	var buf nibbleBuf
	path := buf.expand(key)
	for {
		switch cur := n.(type) {
		case nil:
			return nil, false
		case *leafNode:
			if bytes.Equal(cur.path, path) {
				return cur.value, true
			}
			return nil, false
		case *branchNode:
			if len(path) == 0 {
				if cur.value == nil {
					return nil, false
				}
				return cur.value, true
			}
			n = cur.children[path[0]]
			path = path[1:]
		default:
			return nil, false
		}
	}
}

// Thaw returns a trie with t's content that its caller owns, under a
// fresh generation drawn from the arena; t itself stays as it was. Put and
// Delete on the result change it in place and return it. A thawed trie
// thaws to itself, and a heap trie (from Empty) has no arena to draw
// generations from, so it thaws to itself and stays copy-on-write.
func (t *Trie) Thaw() *Trie {
	if t.owner != 0 || t.arena == nil {
		return t
	}
	return &Trie{root: t.root, count: t.count, arena: t.arena, owner: t.arena.nextGeneration()}
}

// Freeze ends t's ownership and returns t: from here on it is immutable,
// and a later Put or Delete returns a new trie. Its generation is never
// drawn again, so no later owner rewrites the nodes it stamped. Freezing
// a frozen trie writes nothing, so shared frozen tries stay read-only.
func (t *Trie) Freeze() *Trie {
	if t.owner != 0 {
		t.owner = 0
	}
	return t
}

// Put binds key to value. A frozen trie returns a new trie; a thawed one
// changes in place and returns itself. The value slice is copied so later
// caller mutation cannot corrupt shared structure.
func (t *Trie) Put(key, value []byte) *Trie {
	var buf nibbleBuf
	root, added := put(t.arena, t.owner, t.root, buf.expand(key), t.arena.copyBytes(value))
	out := t
	if t.owner == 0 {
		out = &Trie{count: t.count, arena: t.arena}
	}
	out.root = root
	if added {
		out.count++
	}
	return out
}

// put inserts value at path below n, returning the replacement node and
// whether a brand-new key was created (false when overwriting). value must
// be durable; path need not be, as a leaf created here copies its part of
// the path from a (the heap when a is nil). A node stamped with owner is
// rewritten in place with its memo cleared; any other node on the way is
// copied once and stamped. Owner 0 stamps nothing and matches nothing, so
// under it put is plain copy-on-write.
func put(a *arena, owner uint32, n node, path, value []byte) (node, bool) {
	switch cur := n.(type) {
	case nil:
		return mkLeaf(a, owner, a.copyBytes(path), value), true
	case *leafNode:
		if bytes.Equal(cur.path, path) {
			if owner != 0 && cur.owner == owner {
				cur.value, cur.done = value, false
				return cur, false
			}
			return mkLeaf(a, owner, cur.path, value), false
		}
		// Split: find the common prefix, fan out below it.
		cp := commonPrefix(cur.path, path)
		br := mkBranch(a, owner)
		if len(cur.path) == cp {
			br.value = cur.value
		} else {
			br.children[cur.path[cp]] = mkLeaf(a, owner, cur.path[cp+1:], cur.value)
		}
		if len(path) == cp {
			br.value = value
		} else {
			br.children[path[cp]] = mkLeaf(a, owner, a.copyBytes(path[cp+1:]), value)
		}
		// Wrap the shared prefix in a chain of single-child branches.
		var out node = br
		for i := cp - 1; i >= 0; i-- {
			wrap := mkBranch(a, owner)
			wrap.children[path[i]] = out
			out = wrap
		}
		return out, true
	case *branchNode:
		nb := cur
		if owner != 0 && cur.owner == owner {
			nb.done = false
		} else {
			nb = mkBranch(a, owner)
			nb.children, nb.value = cur.children, cur.value
		}
		if len(path) == 0 {
			added := cur.value == nil
			nb.value = value
			return nb, added
		}
		child, added := put(a, owner, cur.children[path[0]], path[1:], value)
		nb.children[path[0]] = child
		return nb, added
	default:
		panic("trie: unknown node type")
	}
}

func commonPrefix(a, b []byte) int {
	n := 0
	for n < len(a) && n < len(b) && a[n] == b[n] {
		n++
	}
	return n
}

// Delete removes key: a frozen trie returns a new trie, a thawed one
// changes in place and returns itself. If the key was absent the original
// trie is returned unchanged. Deletions are rare enough that replacement
// nodes stay on the plain heap, unstamped, even in arena mode: a later Put
// copies them once like any node it does not own.
func (t *Trie) Delete(key []byte) *Trie {
	var buf nibbleBuf
	root, deleted := del(t.root, buf.expand(key))
	if !deleted {
		return t
	}
	out := t
	if t.owner == 0 {
		out = &Trie{arena: t.arena}
	}
	out.root, out.count = root, t.count-1
	return out
}

func del(n node, path []byte) (node, bool) {
	switch cur := n.(type) {
	case nil:
		return nil, false
	case *leafNode:
		if bytes.Equal(cur.path, path) {
			return nil, true
		}
		return cur, false
	case *branchNode:
		if len(path) == 0 {
			if cur.value == nil {
				return cur, false
			}
			nb := &branchNode{children: cur.children}
			return contract(nb), true
		}
		child, deleted := del(cur.children[path[0]], path[1:])
		if !deleted {
			return cur, false
		}
		nb := &branchNode{children: cur.children, value: cur.value}
		nb.children[path[0]] = child
		return contract(nb), true
	default:
		panic("trie: unknown node type")
	}
}

// contract restores the canonical shape after a deletion: a branch without
// a value and with a single leaf child merges into that leaf. Single-child
// branches over a *branch* child are kept — they are exactly how fresh
// builds encode shared prefixes, so the shape stays insertion-order free.
func contract(b *branchNode) node {
	var (
		only     node
		onlyIdx  int
		childcnt int
	)
	for i, c := range b.children {
		if c != nil {
			childcnt++
			only = c
			onlyIdx = i
		}
	}
	switch {
	case childcnt == 0 && b.value == nil:
		return nil
	case childcnt == 0:
		return &leafNode{path: nil, value: b.value}
	case childcnt == 1 && b.value == nil:
		if lf, ok := only.(*leafNode); ok {
			merged := make([]byte, 0, 1+len(lf.path))
			merged = append(merged, byte(onlyIdx))
			merged = append(merged, lf.path...)
			return &leafNode{path: merged, value: lf.value}
		}
		return b
	default:
		return b
	}
}

// KV is one key/value pair of a trie enumeration.
type KV struct {
	Key   []byte
	Value []byte
}

// Items enumerates all key/value pairs in lexicographic key order. This is
// the "download an entire recent state" step of fast sync (§V-A).
func (t *Trie) Items() []KV {
	out := make([]KV, 0, t.count)
	var walk func(n node, prefix []byte)
	walk = func(n node, prefix []byte) {
		switch cur := n.(type) {
		case nil:
		case *leafNode:
			full := append(append([]byte{}, prefix...), cur.path...)
			out = append(out, KV{Key: packNibbles(full), Value: cur.value})
		case *branchNode:
			if cur.value != nil {
				out = append(out, KV{Key: packNibbles(prefix), Value: cur.value})
			}
			for i, c := range cur.children {
				if c != nil {
					walk(c, append(append([]byte{}, prefix...), byte(i)))
				}
			}
		}
	}
	walk(t.root, nil)
	return out
}

// FromItems rebuilds a trie from an enumeration, the receiving half of
// fast sync. The resulting root must (and, by canonicality, does) match the
// root the items were enumerated from.
func FromItems(items []KV) *Trie {
	t := Empty()
	for _, kv := range items {
		t = t.Put(kv.Key, kv.Value)
	}
	return t
}

// Stats describes the storage footprint of a trie snapshot.
type Stats struct {
	// Nodes is the number of distinct trie nodes reachable from the root.
	Nodes int
	// Bytes is the modeled encoded size of those nodes.
	Bytes int
}

// Measure walks the trie and returns its storage footprint. Structure
// shared with other tries is still counted: Measure answers "what does
// storing this snapshot alone cost".
func (t *Trie) Measure() Stats {
	var s Stats
	seen := make(map[hashx.Hash]struct{})
	var walk func(n node)
	walk = func(n node) {
		if n == nil {
			return
		}
		h := n.hash()
		if _, dup := seen[h]; dup {
			return
		}
		seen[h] = struct{}{}
		s.Nodes++
		s.Bytes += n.encodedSize()
		if br, ok := n.(*branchNode); ok {
			for _, c := range br.children {
				walk(c)
			}
		}
	}
	walk(t.root)
	return s
}

// hashSet collects the hashes of every node reachable from t.
func (t *Trie) hashSet() map[hashx.Hash]struct{} {
	set := make(map[hashx.Hash]struct{})
	var walk func(n node)
	walk = func(n node) {
		if n == nil {
			return
		}
		h := n.hash()
		if _, dup := set[h]; dup {
			return
		}
		set[h] = struct{}{}
		if br, ok := n.(*branchNode); ok {
			for _, c := range br.children {
				walk(c)
			}
		}
	}
	walk(t.root)
	return set
}

// DiffStats returns the footprint of the nodes reachable from new but not
// from old: the state delta a block writes (§V-A, "a delta in a global
// state is the difference between two states of the ledger"). Descent is
// pruned at shared subtrees, so the cost is proportional to the delta.
func DiffStats(old, new *Trie) Stats {
	oldSet := old.hashSet()
	var s Stats
	seen := make(map[hashx.Hash]struct{})
	var walk func(n node)
	walk = func(n node) {
		if n == nil {
			return
		}
		h := n.hash()
		if _, shared := oldSet[h]; shared {
			return // identical subtree, nothing new below it
		}
		if _, dup := seen[h]; dup {
			return
		}
		seen[h] = struct{}{}
		s.Nodes++
		s.Bytes += n.encodedSize()
		if br, ok := n.(*branchNode); ok {
			for _, c := range br.children {
				walk(c)
			}
		}
	}
	walk(new.root)
	return s
}

// MeasureMany returns the combined footprint of several snapshots with
// shared structure counted once — the cost of an archive node retaining
// every historical root.
func MeasureMany(tries []*Trie) Stats {
	var s Stats
	seen := make(map[hashx.Hash]struct{})
	var walk func(n node)
	walk = func(n node) {
		if n == nil {
			return
		}
		h := n.hash()
		if _, dup := seen[h]; dup {
			return
		}
		seen[h] = struct{}{}
		s.Nodes++
		s.Bytes += n.encodedSize()
		if br, ok := n.(*branchNode); ok {
			for _, c := range br.children {
				walk(c)
			}
		}
	}
	for _, t := range tries {
		walk(t.root)
	}
	return s
}
