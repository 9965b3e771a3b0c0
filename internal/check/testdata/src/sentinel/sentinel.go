// Package sentinel exercises the sldfsentinel analyzer: sentinel
// errors match only through errors.Is, never ==/!= or error-text
// comparison.
package sentinel

import "errors"

// ErrDead mimics the repo's wrapped sentinels (ErrPartitioned & co).
var ErrDead = errors.New("dead chip")

// Classify walks the blessed and the broken comparison forms.
func Classify(err error) int {
	if err == nil { // silent: nil comparison is the blessed direct form
		return 0
	}
	if err == ErrDead { // want `use errors\.Is`
		return 1
	}
	if err != ErrDead { // want `use errors\.Is`
		return 2
	}
	if errors.Is(err, ErrDead) { // silent: the correct match
		return 3
	}
	if err.Error() == "dead chip" { // want `err\.Error\(\) text`
		return 4
	}
	switch err {
	case ErrDead: // want `switch case compares with ==`
		return 5
	}
	return 6
}

// Same compares two non-sentinel errors: outside the contract, silent.
func Same(a, b error) bool {
	return a == b
}
