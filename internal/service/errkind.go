package service

import (
	"errors"
	"fmt"
	"net/http"
)

// ErrKind classifies service errors for API clients: every error body
// carries the kind plus a retryable bit, so a caller can distinguish "fix
// your request" (terminal) from "back off and resend the same request"
// (retryable) without parsing message strings.
type ErrKind string

const (
	// KindBadRequest: the request is malformed (unparseable body, bad
	// parameter types). Terminal — resending the same bytes cannot help.
	KindBadRequest ErrKind = "bad_request"
	// KindInvalid: the request parsed but names a configuration the
	// service cannot honor (e.g. a distributed job on a daemon with no
	// worker fleet). Terminal for this daemon configuration.
	KindInvalid ErrKind = "invalid"
	// KindNotFound: the referenced job or dataset does not exist.
	KindNotFound ErrKind = "not_found"
	// KindConflict: the resource exists but is in the wrong state for the
	// operation (result of an unfinished job, appends to a failed
	// dataset). Terminal now, though the state may change on its own.
	KindConflict ErrKind = "conflict"
	// KindUnavailable: a capacity limit (draining scheduler, full ingest
	// queue). Retryable — the same request succeeds once load drains.
	KindUnavailable ErrKind = "unavailable"
	// KindInternal: the service itself failed. Not classified retryable;
	// the operator should look before the client hammers.
	KindInternal ErrKind = "internal"
)

// HTTPStatus maps the kind to its response code.
func (k ErrKind) HTTPStatus() int {
	switch k {
	case KindBadRequest:
		return http.StatusBadRequest
	case KindInvalid:
		return http.StatusUnprocessableEntity
	case KindNotFound:
		return http.StatusNotFound
	case KindConflict:
		return http.StatusConflict
	case KindUnavailable:
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// Retryable reports whether resending the identical request can succeed
// without the caller changing anything.
func (k ErrKind) Retryable() bool { return k == KindUnavailable }

// kindError carries a classification along an error chain.
type kindError struct {
	kind ErrKind
	err  error
}

func (e *kindError) Error() string { return e.err.Error() }
func (e *kindError) Unwrap() error { return e.err }

// Errf builds a classified error.
func Errf(kind ErrKind, format string, args ...any) error {
	return &kindError{kind: kind, err: fmt.Errorf(format, args...)}
}

// KindOf extracts the classification, defaulting to KindInternal for
// unclassified errors (the safe default: a 500 draws the operator's eye).
func KindOf(err error) ErrKind {
	var ke *kindError
	if errors.As(err, &ke) {
		return ke.kind
	}
	return KindInternal
}

// writeErr renders a classified error. Retryable responses carry a
// Retry-After hint so naive clients don't busy-loop a full queue.
func writeErr(w http.ResponseWriter, err error) {
	kind := KindOf(err)
	if kind.Retryable() {
		w.Header().Set("Retry-After", "1")
	}
	writeAPI(w, kind.HTTPStatus(), apiError{
		Error:     err.Error(),
		Kind:      kind,
		Retryable: kind.Retryable(),
	})
}
