#include "airline/passenger.hpp"

#include <algorithm>

#include "util/strings.hpp"

namespace fraudsim::airline {

std::string Passenger::name_key() const {
  return util::to_lower(first_name) + "|" + util::to_lower(surname);
}

std::string Passenger::identity_key() const { return name_key() + "|" + birthdate.str(); }

void save_passenger(util::ByteWriter& out, const Passenger& p) {
  out.str(p.first_name);
  out.str(p.surname);
  out.i64(p.birthdate.year);
  out.i64(p.birthdate.month);
  out.i64(p.birthdate.day);
  out.str(p.email);
}

Passenger load_passenger(util::ByteReader& in) {
  Passenger p;
  p.first_name = in.str();
  p.surname = in.str();
  p.birthdate.year = static_cast<int>(in.i64());
  p.birthdate.month = static_cast<int>(in.i64());
  p.birthdate.day = static_cast<int>(in.i64());
  p.email = in.str();
  return p;
}

std::string party_key(const std::vector<Passenger>& party) {
  std::vector<std::string> keys;
  keys.reserve(party.size());
  for (const auto& p : party) keys.push_back(p.name_key());
  return party_key(std::vector<std::string_view>(keys.begin(), keys.end()));
}

std::string party_key(std::vector<std::string_view> name_keys) {
  std::sort(name_keys.begin(), name_keys.end());
  std::string out;
  for (std::size_t i = 0; i < name_keys.size(); ++i) {
    if (i != 0) out += '+';
    out += name_keys[i];
  }
  return out;
}

}  // namespace fraudsim::airline
