import sys
from pathlib import Path

# the benchmark's modules live one level up, next to run.py
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
