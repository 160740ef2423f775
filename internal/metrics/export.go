package metrics

import (
	"fmt"
	"io"
	"strconv"
)

// Exposition writes the Prometheus text format — per family its HELP and
// TYPE lines, then its samples, `name{label="value",…} 3` — and keeps the
// first write error, after which it writes nothing.
type Exposition struct {
	W   io.Writer
	err error
}

// Family opens a metric family; an empty help has no HELP line.
func (e *Exposition) Family(name, typ, help string) {
	if help != "" {
		e.printf("# HELP %s %s\n", name, help)
	}
	e.printf("# TYPE %s %s\n", name, typ)
}

// Sample writes one sample; labels is empty or Label pairs joined by ",".
func (e *Exposition) Sample(name, labels string, v float64) {
	if labels != "" {
		labels = "{" + labels + "}"
	}
	e.printf("%s%s %s\n", name, labels, strconv.FormatFloat(v, 'f', -1, 64))
}

// Err is the first write error.
func (e *Exposition) Err() error { return e.err }

func (e *Exposition) printf(format string, args ...any) {
	if e.err == nil {
		_, e.err = fmt.Fprintf(e.W, format, args...)
	}
}

// Label is one label pair, its value quoted.
func Label(key, value string) string { return key + "=" + strconv.Quote(value) }
