"""The spine benchmark: see README.md in this directory."""
