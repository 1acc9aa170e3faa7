package telemetry

import (
	"context"
	"log/slog"
	"os"
	"sync/atomic"
)

// The package-level logger: the HTTP server logs through Log() so one
// switch controls the whole process. The default writes slog text to
// stderr at Info; SetVerbose(true) (yvserve's -v flag) drops the level
// to Debug, where the per-request lines live; Silence() discards
// everything.

var (
	logLevel  = new(slog.LevelVar) // defaults to Info
	curLogger atomic.Pointer[slog.Logger]
)

func init() {
	curLogger.Store(slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: logLevel})))
}

// Log returns the current package logger. It never returns nil.
func Log() *slog.Logger { return curLogger.Load() }

// SetVerbose toggles Debug-level logging on the default handler.
func SetVerbose(v bool) {
	if v {
		logLevel.Set(slog.LevelDebug)
	} else {
		logLevel.Set(slog.LevelInfo)
	}
}

// Silence discards all log output; tests use it to keep pipeline runs
// quiet. Returns a restore function.
func Silence() func() {
	prev := curLogger.Load()
	curLogger.Store(slog.New(discardHandler{}))
	return func() { curLogger.Store(prev) }
}

// discardHandler drops every record (slog.DiscardHandler exists only
// from Go 1.24; this keeps the module buildable at its declared 1.22).
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (discardHandler) WithAttrs([]slog.Attr) slog.Handler        { return discardHandler{} }
func (discardHandler) WithGroup(string) slog.Handler             { return discardHandler{} }
