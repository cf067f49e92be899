package nopanic_test

import (
	"testing"

	"prefetchlab/internal/lint/linttest"
	"prefetchlab/internal/lint/nopanic"
)

func TestLibraryPackage(t *testing.T) {
	linttest.Run(t, nopanic.Analyzer, "testdata/src/lib")
}

func TestStaticProfPackage(t *testing.T) {
	linttest.Run(t, nopanic.Analyzer, "testdata/src/staticprof")
}
