"""Reference implementations the tests compare the shipped code against."""
