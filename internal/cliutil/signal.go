package cliutil

import (
	"context"
	"os"
	"os/signal"
	"syscall"
)

// SignalContext returns a context that the first SIGINT or SIGTERM
// cancels, for a command's main: the command drains its in-flight work and
// checkpoints its journal. Only that first signal is caught; once the
// context is done the handler is released, so a second signal gets the
// default disposition and ends a process whose drain hangs.
func SignalContext() context.Context {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	context.AfterFunc(ctx, stop)
	return ctx
}
