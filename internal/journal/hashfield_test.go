package journal

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// TestHashFieldMatchesFmtForm: HashField once was
// fmt.Fprintf(h, "%s=%d:%s;", key, len(value), value); every manifest and
// batch digest on disk was computed with those bytes, so the append-built
// form must hash the same for any key and value — empty, multi-byte,
// holding the delimiters themselves or a '%', longer than any pooled buffer
// has been — alone and in sequence.
func TestHashFieldMatchesFmtForm(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	alphabet := []rune("abz019 =:;%\x00\n\"\\é✓\U0001F511")
	random := func(maxLen int) string {
		var b strings.Builder
		for n := rng.Intn(maxLen + 1); n > 0; n-- {
			b.WriteRune(alphabet[rng.Intn(len(alphabet))])
		}
		return b.String()
	}
	got, want := sha256.New(), sha256.New()
	for round := 0; round < 2000; round++ {
		key, value := random(12), random(40)
		switch round % 97 {
		case 0:
			value = strings.Repeat(random(40)+"x", 500) // outgrows the buffer
		case 1:
			key, value = "", ""
		case 2:
			value = "bad\xffutf8" // %s writes bytes, not runes
		}
		one, ref := sha256.New(), sha256.New()
		HashField(one, key, value)
		fmt.Fprintf(ref, "%s=%d:%s;", key, len(value), value)
		if string(one.Sum(nil)) != string(ref.Sum(nil)) {
			t.Fatalf("HashField(%q, %q) differs from the fmt form", key, value)
		}
		HashField(got, key, value)
		fmt.Fprintf(want, "%s=%d:%s;", key, len(value), value)
	}
	if string(got.Sum(nil)) != string(want.Sum(nil)) {
		t.Error("a sequence of fields hashes differently from the fmt form")
	}
}

// TestHashFieldDoesNotAllocate: a digest calls it once per field, so the
// field's buffer is pooled, not made per call.
func TestHashFieldDoesNotAllocate(t *testing.T) {
	h := sha256.New()
	if avg := testing.AllocsPerRun(1000, func() { HashField(h, "num", "38.5") }); avg > 0 {
		t.Errorf("HashField allocates %.1f times per call, want 0", avg)
	}
}
