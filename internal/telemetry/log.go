// Structured logging: the server, cluster, client and daemons log through
// log/slog with typed fields (session, member, slot, ...). The explicit
// discard logger lets call sites that were given no logger skip a nil check.
package telemetry

import (
	"context"
	"log/slog"
)

// NewDiscardLogger returns a logger that drops every record (all levels
// disabled, so argument evaluation is skipped too).
func NewDiscardLogger() *slog.Logger { return slog.New(discardHandler{}) }

type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (d discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return d }
func (d discardHandler) WithGroup(string) slog.Handler           { return d }
