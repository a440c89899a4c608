// Package pow implements Nakamoto-style proof of work (paper §III-A1):
// partial hash inversion as the leader-election lottery, the difficulty
// retargeting rules that keep block generation time converging to a fixed
// value (§VI-A), a Poisson-process mining model for network-scale
// simulation, and the confirmation-confidence mathematics behind §IV-A's
// "six blocks for Bitcoin, five to eleven for Ethereum" guidance.
package pow

import (
	"errors"
	"math"
	"math/big"
	"math/rand"
	"time"

	"repro/internal/chain"
	"repro/internal/hashx"
)

// MineHeader performs real partial hash inversion: it searches nonces so
// the header hash falls below the target derived from header.Difficulty.
// It mutates the header's Nonce on success. Intended for unit tests and
// small difficulties; network experiments use the Poisson model instead.
func MineHeader(h *chain.Header, maxAttempts uint64) (uint64, bool) {
	target := hashx.TargetForDifficulty(h.Difficulty)
	for i := uint64(0); i < maxAttempts; i++ {
		h.Nonce = i
		if hashx.MeetsTarget(h.Hash(), target) {
			return i, true
		}
	}
	return 0, false
}

// VerifyHeader checks the header's proof of work against its declared
// difficulty.
func VerifyHeader(h *chain.Header) bool {
	return hashx.MeetsTarget(h.Hash(), hashx.TargetForDifficulty(h.Difficulty))
}

// BitcoinRetarget computes the next difficulty after a retarget window
// (Bitcoin: 2016 blocks). actual is the time the window took, expected the
// time it should have taken; the adjustment is clamped to maxFactor (4 in
// Bitcoin) in both directions, and difficulty never drops below 1.
func BitcoinRetarget(prev float64, actual, expected time.Duration, maxFactor float64) float64 {
	if actual <= 0 || expected <= 0 || maxFactor < 1 {
		return prev
	}
	ratio := float64(expected) / float64(actual)
	if ratio > maxFactor {
		ratio = maxFactor
	}
	if ratio < 1/maxFactor {
		ratio = 1 / maxFactor
	}
	next := prev * ratio
	if next < 1 {
		next = 1
	}
	return next
}

// EthereumAdjust computes a per-block difficulty adjustment in the style
// of Ethereum Homestead: each block nudges difficulty by parent/2048 ×
// max(1 − elapsed/10s, −99), pulling the block interval toward ~13–15 s.
func EthereumAdjust(parent float64, elapsed time.Duration) float64 {
	step := 1 - float64(elapsed)/float64(10*time.Second)
	if step < -99 {
		step = -99
	}
	next := parent * (1 + step/2048)
	if next < 1 {
		next = 1
	}
	return next
}

// Miner is a participant in the mining lottery with a hash rate in
// hashes/second.
type Miner struct {
	ID       int
	HashRate float64
}

// Lottery models the PoW leader election over a set of miners: block
// discovery is a Poisson process with rate totalHashRate/difficulty, and
// the winner of each block is drawn proportionally to hash rate — the
// "form of a lottery" of §III-A.
type Lottery struct {
	miners []Miner
	total  float64
	cum    []float64
}

// ErrNoHashRate indicates the lottery has no mining power: "If there are
// no miners, no blocks can be mined and there is no transaction
// throughput" (§III-A1).
var ErrNoHashRate = errors.New("pow: total hash rate is zero")

// NewLottery builds a lottery over miners with positive hash rate.
func NewLottery(miners []Miner) (*Lottery, error) {
	l := &Lottery{miners: make([]Miner, 0, len(miners))}
	for _, m := range miners {
		if m.HashRate <= 0 {
			continue
		}
		l.miners = append(l.miners, m)
		l.total += m.HashRate
		l.cum = append(l.cum, l.total)
	}
	if l.total <= 0 {
		return nil, ErrNoHashRate
	}
	return l, nil
}

// SampleInterval draws the time until the network finds the next block at
// the given difficulty: Exp(difficulty / totalHashRate).
func (l *Lottery) SampleInterval(rng *rand.Rand, difficulty float64) time.Duration {
	if difficulty < 1 {
		difficulty = 1
	}
	mean := difficulty / l.total // seconds
	return time.Duration(rng.ExpFloat64() * mean * float64(time.Second))
}

// SampleWinner draws the block finder proportionally to hash rate and
// returns its Miner.ID.
func (l *Lottery) SampleWinner(rng *rand.Rand) int {
	x := rng.Float64() * l.total
	// Binary search the cumulative rates.
	lo, hi := 0, len(l.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if l.cum[mid] <= x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return l.miners[lo].ID
}

// DifficultyForInterval returns the difficulty that makes the expected
// block interval equal target at the lottery's hash rate.
func (l *Lottery) DifficultyForInterval(target time.Duration) float64 {
	d := l.total * target.Seconds()
	if d < 1 {
		d = 1
	}
	return d
}

// CatchUpProbability is Nakamoto's attacker-success formula: the
// probability that an attacker controlling fraction q of the hash rate
// ever overtakes a transaction buried z blocks deep. This is the analytic
// backbone of §IV-A's confirmation-depth recommendations.
func CatchUpProbability(q float64, z int) float64 {
	if q <= 0 {
		return 0
	}
	if q >= 0.5 {
		return 1
	}
	if z <= 0 {
		return 1
	}
	p := 1 - q
	lambda := float64(z) * q / p
	sum := 1.0
	for k := 0; k <= z; k++ {
		poisson := math.Exp(-lambda)
		for i := 1; i <= k; i++ {
			poisson *= lambda / float64(i)
		}
		sum -= poisson * (1 - math.Pow(q/p, float64(z-k)))
	}
	if sum < 0 {
		return 0
	}
	if sum > 1 {
		return 1
	}
	return sum
}

// ConfirmationsForRisk returns the smallest confirmation depth z at which
// an attacker with hash-rate share q succeeds with probability below risk.
// It returns -1 if no depth up to maxZ suffices (q ≥ 0.5: the supermajority
// assumption of §III-A is violated).
func ConfirmationsForRisk(q, risk float64, maxZ int) int {
	for z := 0; z <= maxZ; z++ {
		if CatchUpProbability(q, z) < risk {
			return z
		}
	}
	return -1
}

// SelfishRevenue is Eyal–Sirer's closed-form relative pool revenue for a
// selfish miner with hash share alpha and race parameter gamma (the
// fraction of honest power that mines on the adversary's block during an
// open 1-1 race; their eq. 8). The pool profits — revenue exceeds the
// honest expectation alpha — exactly when alpha > SelfishThreshold(gamma):
// 1/3 at gamma = 0, 1/4 at gamma = 1/2, falling to 0 at gamma = 1. This
// is the analytic column E17's simulated revenue-share sweeps are
// compared against.
func SelfishRevenue(alpha, gamma float64) float64 {
	if alpha <= 0 {
		return 0
	}
	if alpha >= 0.5 {
		return 1
	}
	if gamma < 0 {
		gamma = 0
	}
	if gamma > 1 {
		gamma = 1
	}
	num := alpha*(1-alpha)*(1-alpha)*(4*alpha+gamma*(1-2*alpha)) - alpha*alpha*alpha
	den := 1 - alpha*(1+(2-alpha)*alpha)
	if den <= 0 {
		return 1
	}
	r := num / den
	if r < 0 {
		return 0
	}
	if r > 1 {
		return 1
	}
	return r
}

// SelfishThreshold is the minimum hash share at which selfish mining beats
// honest mining for a given gamma: (1-gamma)/(3-2*gamma) — the classic
// profitability frontier, 1/3 at gamma = 0 through 1/4 at gamma = 1/2
// down to 0 at gamma = 1.
func SelfishThreshold(gamma float64) float64 {
	if gamma < 0 {
		gamma = 0
	}
	if gamma > 1 {
		gamma = 1
	}
	return (1 - gamma) / (3 - 2*gamma)
}

// ExpectedOrphanRate approximates the stale/orphan block rate for a given
// block interval and network-wide propagation delay: two blocks conflict
// when a second one is found before the first propagates, so the rate is
// ≈ 1 − e^(−delay/interval). This is the quantitative core of Fig. 4's
// "two different blocks are created at roughly the same time".
func ExpectedOrphanRate(propagationDelay, blockInterval time.Duration) float64 {
	if blockInterval <= 0 {
		return 1
	}
	return 1 - math.Exp(-float64(propagationDelay)/float64(blockInterval))
}

// Target re-exports the difficulty→threshold conversion for callers that
// verify real mined headers.
func Target(difficulty float64) *big.Int { return hashx.TargetForDifficulty(difficulty) }
