package paillier

import (
	"crypto/rand"
	"math/big"
	"runtime"
	"sync"
	"sync/atomic"
)

// RandomizerPool pregenerates the message-independent factor r^N mod N²
// of Paillier encryptions. The factor costs one full-width modular
// exponentiation — the dominant cost of Encrypt and Rerandomize — but
// depends only on the key, so background workers can compute units ahead
// of demand and the hot path collapses to two modular multiplications.
//
// A unit is consumed by exactly one operation, so pooled encryptions are
// distributionally identical to fresh ones: each uses an independently
// drawn r. The pool is safe for concurrent use by any number of
// goroutines; when the buffer is drained (or after Close) consumers fall
// back to computing the unit inline, so pooled operations are never
// slower than their direct counterparts and never block on the pool.
type RandomizerPool struct {
	pk        *PublicKey
	units     chan *big.Int
	stop      chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once
	draws     atomic.Int64
}

// NewRandomizerPool starts workers goroutines (≤ 0 means GOMAXPROCS)
// filling a buffer of the given capacity (≤ 0 picks a default scaled to
// the worker count). Close must be called to release the workers.
func NewRandomizerPool(pk *PublicKey, workers, buffer int) *RandomizerPool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if buffer <= 0 {
		buffer = 16 * workers
	}
	p := &RandomizerPool{
		pk:    pk,
		units: make(chan *big.Int, buffer),
		stop:  make(chan struct{}),
	}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.fill()
	}
	return p
}

// fill produces noise units until the pool is closed. Once the buffer is
// full the send blocks, so a saturated pool costs no CPU.
func (p *RandomizerPool) fill() {
	defer p.wg.Done()
	for {
		select {
		case <-p.stop:
			return
		default:
		}
		rn, err := p.pk.noiseUnit(rand.Reader)
		if err != nil {
			return // crypto/rand failure; consumers compute inline
		}
		select {
		case p.units <- rn:
		case <-p.stop:
			return
		}
	}
}

// noise returns a pregenerated unit when one is buffered, computing one
// inline otherwise.
func (p *RandomizerPool) noise() (*big.Int, error) {
	p.draws.Add(1)
	select {
	case rn := <-p.units:
		return rn, nil
	default:
		return p.pk.noiseUnit(rand.Reader)
	}
}

// Draws returns how many units the pool's operations have consumed,
// buffered or computed inline: one per Encrypt or Rerandomize.
func (p *RandomizerPool) Draws() int64 { return p.draws.Load() }

// Public returns the key the pool generates noise for.
func (p *RandomizerPool) Public() *PublicKey { return p.pk }

// Encrypt is PublicKey.Encrypt drawing its randomizer from the pool.
func (p *RandomizerPool) Encrypt(m *big.Int) (*Ciphertext, error) {
	if m.Sign() < 0 || m.Cmp(p.pk.N) >= 0 {
		return nil, ErrMessageRange
	}
	rn, err := p.noise()
	if err != nil {
		return nil, err
	}
	return p.pk.encryptWithNoise(m, rn)
}

// EncryptInt64 is PublicKey.EncryptInt64 drawing from the pool.
func (p *RandomizerPool) EncryptInt64(v int64) (*Ciphertext, error) {
	return p.Encrypt(p.pk.encodeSigned(big.NewInt(v)))
}

// Rerandomize is PublicKey.Rerandomize drawing from the pool.
func (p *RandomizerPool) Rerandomize(ct *Ciphertext) (*Ciphertext, error) {
	rn, err := p.noise()
	if err != nil {
		return nil, err
	}
	return p.pk.mulNoise(ct, rn), nil
}

// Close stops the background workers and waits for them to exit. The
// pool remains usable afterwards — operations compute their randomizers
// inline — so concurrent users need not synchronize with Close.
func (p *RandomizerPool) Close() {
	p.closeOnce.Do(func() { close(p.stop) })
	p.wg.Wait()
	// Drain buffered units so the memory is reclaimable immediately.
	for {
		select {
		case <-p.units:
		default:
			return
		}
	}
}
