module annotadb/benchmark

go 1.22

require annotadb v0.0.0

replace annotadb => ../../
