package journal

import (
	"errors"
	"fmt"
	"os"
)

// Open starts or continues the journal at path. It is how every surface
// opens a run's journal — the pprl-link and pprl-party -journal flag, and
// the linkage service's job and dataset directories (opened again on
// every daemon restart) — so the file on disk, not the caller, decides
// whether a run is new:
//
//   - no file yet → a fresh journal is created;
//   - an intact journal → it is resumed, torn tail truncated, and the
//     engine replays its verdicts (Recovered is non-nil);
//   - a file the crash cut short before the manifest became durable →
//     there is nothing to resume and nothing to lose, so the file is
//     recreated fresh.
//
// Every other fault — foreign data, a newer format version, corruption
// inside CRC-valid records — stays a hard error exactly as in Resume:
// those files hold (or claim to hold) purchased verdicts this build must
// not silently discard. A resumed journal whose manifest does not match
// the run is refused by Begin.
func Open(path string, opts Options) (*Writer, error) {
	if _, err := os.Stat(path); err != nil {
		if !os.IsNotExist(err) {
			return nil, fmt.Errorf("journal: stat: %w", err)
		}
		return Create(path, opts)
	}
	w, err := Resume(path, opts)
	if !errors.Is(err, ErrNoManifest) {
		return w, err
	}
	// The previous process died before the manifest reached disk: the
	// journal never recorded a verdict, so starting over loses nothing.
	if err := os.Remove(path); err != nil {
		return nil, fmt.Errorf("journal: recreating manifest-less journal: %w", err)
	}
	return Create(path, opts)
}
