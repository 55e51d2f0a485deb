import sys
from pathlib import Path

# The benchmark's modules import each other flat, and degjc comes from src/.
HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]
