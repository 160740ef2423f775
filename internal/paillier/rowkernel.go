//go:build !math_big_pure_go

package paillier

import (
	"math/big"
	_ "unsafe" // for go:linkname
)

// addMulVVW sets z += x·y over len(z) words (len(x) ≥ len(z)) and returns
// the carry word: math/big's row kernel, MULX/ADX assembly on amd64.
// math/big keeps the symbol linkname-stable for outside callers
// (go.dev/issue/67401); the empty rowkernel.s lets the declaration go
// without a body.
//
//go:linkname addMulVVW math/big.addMulVVW
//go:noescape
func addMulVVW(z, x []big.Word, y big.Word) (c big.Word)
