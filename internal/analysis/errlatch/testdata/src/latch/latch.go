// Package latch exercises the errlatch analyzer: sentinel matching and
// the durability-contract must-use rule.
package latch

import (
	"errors"
	"strings"
)

// ErrGone is the sentinel for a missing record; callers receive it wrapped
// with context.
var ErrGone = errors.New("latch: record gone")

// Journal is the durability contract: the results of Seal and Committed
// are the only evidence that writes reached disk.
type Journal struct{}

// Seal returns the ticket an acknowledgement must wait on.
func (j *Journal) Seal() <-chan error { return nil }

// Committed reports the first durability error.
func (j *Journal) Committed() error { return nil }

// BadCompare matches the sentinel by identity; wrapped errors slip through.
func BadCompare(err error) bool {
	return err == ErrGone // want `comparing error with == ErrGone`
}

// BadNotEqual is the negated form of the same mistake.
func BadNotEqual(err error) bool {
	return err != ErrGone // want `comparing error with != ErrGone`
}

// BadSwitch matches the sentinel as a switch case.
func BadSwitch(err error) int {
	switch err {
	case ErrGone: // want `switch case matches sentinel ErrGone by identity`
		return 1
	case nil:
		return 0
	}
	return 2
}

// BadText greps the error's rendered text.
func BadText(err error) bool {
	return strings.Contains(err.Error(), "gone") // want `matching on error text with strings.Contains`
}

// DropCommitted reproduces the silent-loss shape PR 6 fixed: the one
// signal that writes reached disk, thrown away.
func DropCommitted(j *Journal) {
	j.Committed() // want `result of latch.Journal.Committed discarded`
}

// BlankCommitted drops the signal through a blank assignment.
func BlankCommitted(j *Journal) {
	_ = j.Committed() // want `result of latch.Journal.Committed assigned to blank`
}

// DropSeal acknowledges without the covering fsync it was told to wait on.
func DropSeal(j *Journal) {
	j.Seal() // want `result of latch.Journal.Seal discarded`
}

// GoCommitted drops the signal by spawning the call.
func GoCommitted(j *Journal) {
	go j.Committed() // want `result of latch.Journal.Committed discarded by go statement`
}

// GoodCompare matches through wrapping.
func GoodCompare(err error) bool { return errors.Is(err, ErrGone) }

// NilCheck is fine: nil is not a sentinel.
func NilCheck(err error) bool { return err == nil }

// CheckCommitted consumes the durability signal properly.
func CheckCommitted(j *Journal) error { return j.Committed() }

// FlushBestEffort carries the sanctioned exception. The suppression must
// keep working or this file stops matching its golden expectations.
func FlushBestEffort(j *Journal) {
	//annotlint:ignore errlatch shutdown path: the latch already records the first error; this call only nudges a final sync
	j.Committed()
}
