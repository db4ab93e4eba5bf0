// The benchmark is a module of its own so that it builds from its own
// directory and the repository's `go build ./... && go test ./...`
// leaves it alone. The import path keeps the zerberr/ prefix, which is
// what lets it import zerberr/internal/... .
module zerberr/benchmark

go 1.24

require zerberr v0.0.0

replace zerberr => ../
